"""Seed replication: statistics over repeated runs.

Single-seed results can be flattered by luck; the benchmarks assert on
``seed=0`` because runs are deterministic, but the scientific claim is
"holds across seeds".  :func:`summarize_metrics` turns metric name ->
values-across-seeds into mean / standard deviation / range per metric,
so reviewers (and the replication tests) can check both the value and
its stability.  Multi-seed runs themselves go through ``corelite batch``
(:class:`repro.experiments.parallel.BatchRunner`), whose
:func:`~repro.experiments.parallel.batch_metrics` summarizes with it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["MetricSummary", "summarize_metrics"]


@dataclass(frozen=True)
class MetricSummary:
    """Distribution of one scalar metric across seeds."""

    name: str
    values: tuple
    mean: float
    stdev: float
    lo: float
    hi: float


def summarize_metrics(per_metric: Mapping[str, Sequence[float]]) -> Dict[str, MetricSummary]:
    """Summarize metric name -> values-across-seeds into MetricSummary."""
    out = {}
    for name, values in per_metric.items():
        values = [float(v) for v in values]
        if not values:
            raise ConfigurationError(f"metric {name!r} has no values")
        out[name] = MetricSummary(
            name=name,
            values=tuple(values),
            mean=statistics.fmean(values),
            stdev=statistics.stdev(values) if len(values) > 1 else 0.0,
            lo=min(values),
            hi=max(values),
        )
    return out
