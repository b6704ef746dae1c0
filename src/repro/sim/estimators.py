"""Exponential rate estimation (SIGCOMM'98, eq. for ``r_i``).

On each packet of size ``L`` arriving ``T`` seconds after the previous
one::

    r_new = (1 - e^(-T/K)) * L/T + e^(-T/K) * r_old

The exponential weight makes the estimate converge on the true rate within
a few ``K`` regardless of packet sizes, and discounts history faster when
the flow goes quiet.  Simultaneous arrivals (``T == 0``, possible when a
burst is delivered in one event) are accumulated and folded into the next
positive-gap update.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, SimulationError

__all__ = ["ExponentialRateEstimator"]


class ExponentialRateEstimator:
    """The CSFQ exponential averaging rate estimator."""

    __slots__ = ("k", "rate", "_last_time", "_pending")

    def __init__(self, k: float, start_time: float = 0.0, initial_rate: float = 0.0) -> None:
        if k <= 0:
            raise ConfigurationError(f"averaging constant K must be positive, got {k}")
        if initial_rate < 0:
            raise ConfigurationError(f"initial rate must be >= 0, got {initial_rate}")
        self.k = k
        self.rate = initial_rate
        self._last_time = start_time
        self._pending = 0.0

    def update(self, now: float, size: float = 1.0) -> float:
        """Fold one arrival of ``size`` packets at time ``now``; returns rate."""
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        gap = now - self._last_time
        if gap < 0:
            raise SimulationError(f"rate estimator saw time go backwards ({gap})")
        if gap == 0.0:
            self._pending += size
            return self.rate
        load = self._pending + size
        self._pending = 0.0
        self._last_time = now
        weight = math.exp(-gap / self.k)
        self.rate = (1.0 - weight) * (load / gap) + weight * self.rate
        return self.rate

    def restart(self, now: float) -> None:
        """Zero the estimate (flow restart)."""
        self.rate = 0.0
        self._pending = 0.0
        self._last_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExponentialRateEstimator(K={self.k}, rate={self.rate:.3f})"
