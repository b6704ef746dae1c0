"""Shared benchmark fixtures.

A bench writes its report into ``benchmarks/results/<name>.txt`` so the
numbers survive pytest's output capture.  The paper's claims are not
benches: they live in ``repro.experiments.validation`` (``corelite
report``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def write_report(results_dir):
    """Returns write(name, text): saves a report file and echoes to stdout."""

    def write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        print(f"\n[report saved to {path}]\n{text}")

    return write


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer and return its value.

    Whole-simulation benches are deterministic and expensive; one round is
    the measurement.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
