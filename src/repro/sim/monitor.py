"""Measurement helpers.

The paper's figures plot two quantities per flow: the *allotted rate*
``bg(f)`` maintained by the ingress edge (Figures 3, 5–10) and the
*cumulative service*, i.e. packets delivered to the egress edge
(Figure 4).  :class:`Series` stores a sampled time series and
:class:`ThroughputMeter` converts egress delivery counts into windowed
rates.  ``Cloud.run``'s one periodic sampler fills every flow's rate,
throughput and cumulative series from the edges.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.errors import SimulationError

__all__ = ["Series", "ThroughputMeter"]


class Series:
    """An append-only sampled time series of (time, value) pairs."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"series {self.name!r}: non-monotonic sample at t={time}"
            )
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> Sequence[float]:
        return self._times

    @property
    def values(self) -> Sequence[float]:
        return self._values

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))

    def last(self) -> Tuple[float, float]:
        """Most recent (time, value) sample."""
        if not self._times:
            raise SimulationError(f"series {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def window(self, t0: float, t1: float) -> "Series":
        """Sub-series with samples in ``[t0, t1]``."""
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        out = Series(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def mean(self, t0: Optional[float] = None, t1: Optional[float] = None) -> float:
        """Mean of samples, optionally restricted to ``[t0, t1]``."""
        if t0 is None and t1 is None:
            values = self._values
        else:
            values = self.window(
                t0 if t0 is not None else float("-inf"),
                t1 if t1 is not None else float("inf"),
            )._values
        if not values:
            raise SimulationError(f"series {self.name!r}: no samples in window")
        return sum(values) / len(values)

    def value_at(self, time: float) -> float:
        """Value of the latest sample taken at or before ``time``."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            raise SimulationError(f"series {self.name!r}: no sample at or before t={time}")
        return self._values[idx]

    def as_rows(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, n={len(self)})"


class ThroughputMeter:
    """Turns discrete delivery events into an instantaneous rate.

    ``record()`` is called per delivered packet; ``take_rate(now)`` returns
    the average rate since the previous ``take_rate`` call, which is how the
    paper's per-interval "instantaneous rate" curves are produced.
    """

    __slots__ = ("count", "_last_count", "_last_time")

    def __init__(self) -> None:
        self.count = 0
        self._last_count = 0
        self._last_time = 0.0

    def record(self, n: int = 1) -> None:
        self.count += n

    def take_rate(self, now: float) -> float:
        """Packets/second since the previous call (0 if no time elapsed)."""
        span = now - self._last_time
        delta = self.count - self._last_count
        self._last_count = self.count
        self._last_time = now
        if span <= 0.0:
            return 0.0
        return delta / span
