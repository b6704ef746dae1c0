"""Fairness and convergence metrics.

Used by tests and benchmarks to turn the simulator's rate series into the
quantities the paper argues about: how fair the steady state is (Jain's
index over normalized rates), how close measured rates are to the weighted
max-min expectation, and how quickly each scheme converges (the paper's
central Corelite-vs-CSFQ claim).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.monitor import Series

__all__ = [
    "jain_index",
    "weighted_jain_index",
    "mean_absolute_error",
    "convergence_time",
    "weighted_jain_series",
    "reconvergence_time",
    "transient_dip",
]


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal; ``1/n`` means one flow takes everything.
    An all-zero vector is defined as perfectly fair (index 1.0).
    """
    rates = list(rates)
    if not rates:
        raise ConfigurationError("jain_index needs at least one rate")
    if any(r < 0 for r in rates):
        raise ConfigurationError("rates must be non-negative")
    total = sum(rates)
    square_sum = sum(r * r for r in rates)
    if total == 0.0 or square_sum == 0.0:
        # All zero, or so small that the squares underflow: treat as equal.
        return 1.0
    return (total * total) / (len(rates) * square_sum)


def weighted_jain_index(rates: Sequence[float], weights: Sequence[float]) -> float:
    """Jain's index of the normalized rates ``b(i)/w(i)`` (paper §2.1).

    This is the fairness measure matching the paper's service model: a
    perfectly weighted-fair allocation on a shared bottleneck scores 1.0.
    """
    rates = list(rates)
    weights = list(weights)
    if len(rates) != len(weights):
        raise ConfigurationError(
            f"rates ({len(rates)}) and weights ({len(weights)}) differ in length"
        )
    if any(w <= 0 for w in weights):
        raise ConfigurationError("weights must be positive")
    return jain_index([r / w for r, w in zip(rates, weights)])


def mean_absolute_error(
    measured: Mapping[object, float], expected: Mapping[object, float]
) -> float:
    """Mean |measured - expected| over the keys of ``expected``."""
    if not expected:
        raise ConfigurationError("expected mapping is empty")
    missing = [key for key in expected if key not in measured]
    if missing:
        raise ConfigurationError(f"measured rates missing for {missing!r}")
    return sum(abs(measured[key] - expected[key]) for key in expected) / len(expected)


def convergence_time(
    series: Series,
    target: float,
    tolerance: float = 0.2,
    hold: float = 5.0,
    start: float = 0.0,
) -> Optional[float]:
    """First time after which the series stays within ``tolerance * target``.

    Scans samples from ``start`` onward and returns the earliest time ``t``
    such that every subsequent sample up to the end of the series satisfies
    ``|value - target| <= tolerance * target``, provided the series covers
    at least ``hold`` seconds past ``t``.  Returns ``None`` if the series
    never settles.

    This is the measure behind the paper's "Corelite converges more than 30
    seconds faster than CSFQ" claim (§4.2).
    """
    if target <= 0:
        raise ConfigurationError(f"target must be positive, got {target}")
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    band = tolerance * target
    times = series.times
    values = series.values
    if not times:
        return None
    end_time = times[-1]
    settle_at: Optional[float] = None
    for t, v in zip(times, values):
        if t < start:
            continue
        if abs(v - target) <= band:
            if settle_at is None:
                settle_at = t
        else:
            settle_at = None
    if settle_at is None:
        return None
    if end_time - settle_at < hold:
        return None
    return settle_at


# -- re-convergence after topology events ------------------------------


def _aligned_series(
    series_by_flow: Mapping[object, Series],
) -> tuple:
    """Sorted flow ids + the shared sample grid, validating alignment."""
    if not series_by_flow:
        raise ConfigurationError("need at least one flow series")
    ids = sorted(series_by_flow)
    times = list(series_by_flow[ids[0]].times)
    for fid in ids[1:]:
        if list(series_by_flow[fid].times) != times:
            raise ConfigurationError(
                f"flow {fid!r}: series not sampled on the shared grid "
                "(all flows must come from one run's sampler)"
            )
    return ids, times


def weighted_jain_series(
    series_by_flow: Mapping[object, Series],
    weights: Mapping[object, float],
) -> Series:
    """Per-sample weighted Jain index over a run's rate series.

    ``series_by_flow`` maps flow id to its sampled rate/throughput
    :class:`Series` (all on the same sample grid — one run's sampler
    produces exactly that); ``weights`` maps flow id to the
    normalization divisor, either the paper's ``w(f)`` or a reference
    allocation (see :func:`reconvergence_time`).  Flows whose weight is
    0 are excluded from the index (a partitioned flow's fair share *is*
    zero — its starvation is correct, not unfair).
    """
    ids, times = _aligned_series(series_by_flow)
    missing = [fid for fid in ids if fid not in weights]
    if missing:
        raise ConfigurationError(f"weights missing for flows {missing!r}")
    active = [fid for fid in ids if weights[fid] > 0]
    if not active:
        raise ConfigurationError("no flow has a positive weight")
    columns = [series_by_flow[fid].values for fid in active]
    divisors = [weights[fid] for fid in active]
    out = Series("weighted-jain")
    for k, t in enumerate(times):
        out.append(
            t, jain_index([col[k] / w for col, w in zip(columns, divisors)])
        )
    return out


def reconvergence_time(
    series_by_flow: Mapping[object, Series],
    reference: Mapping[object, float],
    event_time: float,
    threshold: float = 0.9,
    hold: float = 0.0,
) -> Optional[float]:
    """Time-to-X% fairness after a topology event.

    Computes the per-sample Jain index of ``rate / reference`` (with
    ``reference`` the post-event weighted max-min allocation — on a
    multi-bottleneck graph the *weights* alone cannot score a converged
    state as 1.0, the reference allocation can) and returns how many
    seconds after ``event_time`` the index first rises to ``threshold``
    and stays there for the rest of the series.  Requires the series to
    extend at least ``hold`` seconds past the settling sample.  Returns
    ``None`` if fairness never re-converges within the series.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(
            f"threshold must be in (0, 1], got {threshold!r}"
        )
    jain = weighted_jain_series(series_by_flow, reference)
    settle: Optional[float] = None
    for t, v in zip(jain.times, jain.values):
        if t < event_time:
            continue
        if v >= threshold:
            if settle is None:
                settle = t
        else:
            settle = None
    if settle is None:
        return None
    if jain.times[-1] - settle < hold:
        return None
    return settle - event_time


def transient_dip(
    series_by_flow: Mapping[object, Series],
    event_time: float,
    baseline_window: float = 10.0,
) -> float:
    """Worst post-event aggregate throughput, relative to pre-event.

    Averages the summed per-flow series over the ``baseline_window``
    seconds before ``event_time`` and returns ``min(post) / baseline``
    — 1.0 means the event caused no aggregate throughput dip at all,
    0.0 means delivery stopped entirely at some sample.  Values above
    1.0 are possible when the event *added* capacity (a recovery).
    """
    ids, times = _aligned_series(series_by_flow)
    columns = [series_by_flow[fid].values for fid in ids]
    aggregate = [sum(col[k] for col in columns) for k in range(len(times))]
    baseline_samples = [
        total
        for t, total in zip(times, aggregate)
        if event_time - baseline_window <= t < event_time
    ]
    if not baseline_samples:
        raise ConfigurationError(
            f"no samples in the {baseline_window:g}s before the event at "
            f"t={event_time:g}"
        )
    baseline = sum(baseline_samples) / len(baseline_samples)
    if baseline <= 0.0:
        raise ConfigurationError(
            "pre-event aggregate throughput is zero; the dip is undefined"
        )
    post = [total for t, total in zip(times, aggregate) if t >= event_time]
    if not post:
        return 1.0
    return min(post) / baseline
