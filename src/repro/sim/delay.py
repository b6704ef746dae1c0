"""Per-flow one-way delay statistics.

QoS is not only rate: a Corelite cloud's feedback keeps queues near
``qthresh``, so packet delays should sit near ``propagation +
qthresh/mu`` rather than ``propagation + buffer/mu``.  The egress edges
feed every delivered data packet's one-way delay (creation at the
ingress shaper to egress delivery) into a :class:`DelayTracker`:
constant-memory running statistics plus a reservoir sample for
percentile estimates.

The reservoir is skip-sampled (Li's Algorithm L): past the first ``k``
samples it keeps a weight ``W`` and the absolute index of the next sample
to admit, and draws random numbers only on an admission — about
``k * ln(n / k)`` times in ``n`` samples, where Vitter's Algorithm R, used
before, drew once per sample.  Keyed on the absolute index, a train's
``n`` members cost one compare unless one is admitted, and leave the
reservoir they would have left recorded one by one.  Both algorithms
sample uniformly but consume different random numbers, so ``p50/p95/p99``
estimate the same distribution as before and differ in the last digits.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.errors import ConfigurationError

__all__ = ["DelayTracker"]

#: Largest double below 1: the first weight can round to 1, and log(1 - 1) = -inf.
_W_MAX = 1.0 - 2.0**-53


class DelayTracker:
    """Running delay statistics with an optional reservoir for quantiles."""

    __slots__ = (
        "count", "total", "total_sq", "min", "max",
        "_reservoir", "_capacity", "_seed", "_rng", "_w", "_next",
    )

    def __init__(self, reservoir: int = 512, seed: int = 0) -> None:
        if reservoir < 0:
            raise ConfigurationError(f"reservoir must be >= 0, got {reservoir}")
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0
        self.min = math.inf
        self.max = 0.0
        self._capacity = reservoir
        self._reservoir: List[float] = []
        self._seed = seed
        #: Seeded by the first sample past the fill phase: most flows never
        #: get there, and a Mersenne Twister is 2.5 KB.
        self._rng: Optional[random.Random] = None
        self._w = 1.0
        #: Absolute index of the next sample to admit (0 while filling:
        #: every index below the capacity is admitted).
        self._next = 0 if reservoir else math.inf

    def record(self, delay: float) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        index = self.count
        self.count = index + 1
        self.total += delay
        self.total_sq += delay * delay
        if delay < self.min:
            self.min = delay
        if delay > self.max:
            self.max = delay
        if index >= self._next:
            if index < self._capacity:
                self._reservoir.append(delay)
            else:
                self._admit(index, delay)

    def record_train(self, base: float, n: int, spacing: float) -> None:
        """Record the ``n`` members of a train whose tail has delay ``base``.

        Members serialize ``spacing`` seconds apart on the last hop and
        are delivered together, so member ``i`` (head first) has delay
        ``base - (n - 1 - i) * spacing``: an arithmetic progression, whose
        moments have closed forms.  Only the members the reservoir admits
        are materialized; the result equals ``n`` calls of :meth:`record`.
        """
        lo = base - (n - 1) * spacing
        if lo < 0.0:  # degenerate timing (clock skew in tests): clamp each
            for i in range(n):
                self.record(max(0.0, base - (n - 1 - i) * spacing))
            return
        start = self.count
        end = start + n
        self.count = end
        pairs = n * (n - 1)
        self.total += n * lo + spacing * (pairs / 2)
        self.total_sq += (
            n * lo * lo + lo * spacing * pairs + spacing * spacing * (pairs * (2 * n - 1) / 6)
        )
        if lo < self.min:
            self.min = lo
        if base > self.max:
            self.max = base
        index = self._next if self._next > start else start
        while index < end:
            delay = base - (end - 1 - index) * spacing
            if index < self._capacity:
                self._reservoir.append(delay)
                index += 1
            else:
                self._admit(index, delay)
                index = self._next

    def _admit(self, index: int, delay: float) -> None:
        """Sample ``index`` (past the fill phase) reached ``_next``: store
        it in a random slot, then take Algorithm L's step — shrink ``W``
        and jump a geometric number of samples.  The first call seeds the
        generator and only draws the first jump, from the end of the fill.
        ``1 - random()`` lies in (0, 1], so neither logarithm sees 0."""
        cap = self._capacity
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
            last = cap - 1
        else:
            self._reservoir[int(rng.random() * cap)] = delay
            last = index
        w = self._w = min(self._w * math.exp(math.log(1.0 - rng.random()) / cap), _W_MAX)
        self._next = last + 1 + int(math.log(1.0 - rng.random()) / math.log1p(-w))
        if self._next == index:  # the first jump was 0: this sample is admitted after all
            self._admit(index, delay)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stdev(self) -> float:
        if self.count < 2:
            return 0.0
        variance = self.total_sq / self.count - self.mean**2
        return math.sqrt(max(0.0, variance))

    def percentile(self, q: float) -> Optional[float]:
        """Approximate q-quantile (0..1) from the reservoir sample."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DelayTracker(n={self.count}, mean={self.mean * 1e3:.1f} ms)"
