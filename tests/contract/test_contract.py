"""Every (cloud x mode) row replays its golden entry; regeneration needs a cause."""

import pytest

from ..conftest import run_python
from . import FIELDS, GOLDEN_PATH, ROWS, load_golden, run_row


@pytest.fixture(scope="module")
def golden():
    return load_golden()["rows"]


def test_the_golden_file_holds_exactly_the_rows(golden):
    assert sorted(golden) == sorted(ROWS)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_row_replays_its_golden_entry(row, golden):
    now, pinned = run_row(row), golden[row]
    moved = {field: (pinned[field], now[field]) for field in FIELDS if now[field] != pinned[field]}
    assert not moved, f"{row}: moved (golden, now): {moved}"


@pytest.mark.parametrize("argv", [(), ("--cause", ""), ("--cause", "  ")])
def test_regeneration_without_a_cause_writes_nothing(argv):
    before = GOLDEN_PATH.read_bytes()
    proc = run_python("-m", "tests.contract", *argv)
    assert proc.returncode != 0 and "--cause is required" in proc.stderr
    assert GOLDEN_PATH.read_bytes() == before


@pytest.mark.parametrize("cloud", ["chain4-csfq", "parking-lot-aggregate-csfq"])
def test_train_batch_is_inert_for_csfq(cloud, golden):
    """Trains are Corelite's datapath: a CSFQ edge stays scalar, so its
    ``train_batch = 8`` row is its scalar row, field for field."""
    assert golden[f"{cloud}/vectorized-train-8"] == golden[f"{cloud}/vectorized"]
