"""Rate adaptation at the edge (paper §2.2, step 3 and §4).

Every edge epoch, for each flow::

    bg(f) = bg(f) + alpha                      if m(f) == 0
    bg(f) = max(0,  bg(f) - beta * m(f))       if m(f)  > 0

where ``m(f)`` is the number of feedback markers received in the last
epoch, taken as the **max over any single core router** (throttle toward
the bottleneck, not the sum of all congested hops).  Because the core
returns markers in proportion to the normalized rate
(``m(f) = k * bg(f)/w(f)``), the decrease is effectively
``bg := bg * (1 - beta*k/w)`` — a *weighted multiplicative* decrease — so
the edge executes the weighted LIMD that Chiu–Jain show converges to
(weighted) fairness.

Startup follows the paper's §4 source agents: flows begin in slow-start,
doubling every second, and leave it on the first congestion notification
(halving) or when the doubled rate exceeds ``ss_thresh`` (halving back).
"""

from __future__ import annotations

from enum import Enum

from repro.core.config import EdgeConfig
from repro.errors import ConfigurationError

__all__ = ["INITIAL_RATE", "Phase", "RateController"]

#: Rate at which a freshly (re)started flow begins slow-start, pkt/s:
#: chosen (the paper gives none).
INITIAL_RATE = 1.0


class Phase(Enum):
    """Controller phase: exponential startup or steady-state LIMD."""

    SLOW_START = "slow_start"
    LINEAR = "linear"


_SLOW_START = Phase.SLOW_START


class RateController:
    """Slow-start + weighted-LIMD controller for one flow's allowed rate.

    The same controller drives both Corelite edges (feedback = marker
    count) and CSFQ source agents (feedback = loss count): the paper uses
    "similar rate adaptation schemes" for both so that the comparison
    isolates the core mechanisms.
    """

    __slots__ = (
        "config",
        "weight",
        "min_rate",
        "rate",
        "phase",
        "_last_double",
        "_alpha_scale",
        "_rate_scale",
        "increases",
        "decreases",
        "feedback_total",
        "slow_start_exits",
    )

    def __init__(
        self,
        config: EdgeConfig,
        weight: float,
        start_time: float = 0.0,
        min_rate: float | None = None,
        alpha_scale: float = 1.0,
        rate_scale: float = 1.0,
    ) -> None:
        """``min_rate`` overrides the config floor per flow — this is how a
        *minimum rate contract* is enforced: the edge never throttles the
        flow below its contracted rate (paper §4/§6).

        ``alpha_scale``/``rate_scale`` adapt the controller to an
        *aggregate bucket* of N identical flows: the bucket must probe N
        times faster (alpha_scale=N — each member still sees +alpha per
        epoch) and start/cap at N times the per-flow rate (rate_scale=N
        scales :data:`INITIAL_RATE` and the ``max_rate`` ceiling).  ``beta``
        is NOT scaled: feedback arrives in proportion to the bucket's
        total normalized rate, so the multiplicative decrease already
        scales with N through the feedback count itself.  The defaults
        (1.0) are exact float identities, keeping single flows
        byte-identical."""
        if weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        if alpha_scale <= 0 or rate_scale <= 0:
            raise ConfigurationError("aggregate gain scales must be positive")
        self.config = config
        self.weight = weight
        self.min_rate = config.min_rate if min_rate is None else min_rate
        if self.min_rate < 0:
            raise ConfigurationError(f"min_rate must be >= 0, got {self.min_rate}")
        self._alpha_scale = alpha_scale
        self._rate_scale = rate_scale
        self.rate = max(INITIAL_RATE * rate_scale, self.min_rate)
        self.phase = Phase.SLOW_START
        self._last_double = start_time
        self.increases = 0
        self.decreases = 0
        self.feedback_total = 0
        self.slow_start_exits = 0

    def restart(self, now: float) -> None:
        """Reset to a fresh slow-start (a flow re-entering the network)."""
        self.rate = max(INITIAL_RATE * self._rate_scale, self.min_rate)
        self.phase = Phase.SLOW_START
        self._last_double = now

    def on_epoch(self, feedback_count: int, now: float) -> float:
        """Apply one epoch of adaptation; returns the new allowed rate.

        One frame per flow-epoch past slow start: the linear step and the
        clamp are written out with the builtin ``min`` / ``max`` semantics of
        :meth:`_clamp`, which slow start keeps calling."""
        if feedback_count < 0:
            raise ConfigurationError(f"feedback_count must be >= 0, got {feedback_count}")
        self.feedback_total += feedback_count
        if self.phase is _SLOW_START:
            self._slow_start_epoch(feedback_count, now)
            return self.rate
        if feedback_count == 0:
            rate = self.rate + self.config.alpha * self._alpha_scale
            self.increases += 1
        else:
            rate = self.rate - self.config.beta * feedback_count
            self.decreases += 1
        rate = rate if rate > 0.0 else 0.0  # ``_clamp``: max, max, then min
        rate = rate if rate > self.min_rate else self.min_rate
        ceiling = self.config.max_rate * self._rate_scale
        self.rate = rate = rate if rate < ceiling else ceiling
        return rate

    # -- phases ----------------------------------------------------------

    def _slow_start_epoch(self, feedback_count: int, now: float) -> None:
        cfg = self.config
        if feedback_count > 0:
            # First congestion notification: halve and go linear.
            self.rate = self._clamp(self.rate / 2.0)
            self._exit_slow_start()
            self.decreases += 1
            return
        if now - self._last_double >= cfg.ss_double_interval:
            self.rate = self._clamp(self.rate * 2.0)
            self._last_double = now
            if self.rate / self.weight > cfg.ss_thresh:
                # The *out-of-profile* (normalized, per unit weight) rate
                # exceeded ss-thresh: halve and go linear.  The normalized
                # reading is what makes the paper's §4.2 narrative work:
                # every flow, regardless of weight, completes slow-start at
                # normalized rate ss_thresh/2 — "close to their respective
                # fair share rates".
                self.rate = self._clamp(self.rate / 2.0)
                self._exit_slow_start()

    def _exit_slow_start(self) -> None:
        self.phase = Phase.LINEAR
        self.slow_start_exits += 1

    def _clamp(self, rate: float) -> float:
        ceiling = self.config.max_rate * self._rate_scale
        return min(ceiling, max(self.min_rate, max(0.0, rate)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RateController(rate={self.rate:.2f} pps, w={self.weight}, "
            f"phase={self.phase.value})"
        )
