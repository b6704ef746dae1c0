"""Closed-form predictions about the Corelite control loop.

These are the back-of-envelope results used throughout the paper's
argument (and this repository's DESIGN.md), made executable so tests and
experiment planning can rely on them instead of folklore:

* slow-start trajectory: when a flow exits, and at what rate (§4.2's
  "flows complete their slow-start phase close to their fair share");
* linear-phase climb times (how long until a flow can claim a share);
* the LIMD steady-state oscillation band around a fair share, following
  Chiu-Jain: additive increase ``alpha`` per epoch, multiplicative
  decrease ``beta*m`` with ``m ∝ bg/w``;
* the control loop's feedback latency and throttle authority — the
  quantities whose ratio decides whether the 40-packet buffers survive a
  transient (DESIGN.md §9 on the edge epoch).

All functions are pure and deterministic; ``tests/test_theory.py`` checks
them against the actual :class:`~repro.core.adaptation.RateController`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.core.adaptation import INITIAL_RATE
from repro.core.config import CoreliteConfig
from repro.errors import ConfigurationError

__all__ = [
    "slow_start_exit",
    "linear_climb_time",
    "oscillation_band",
    "feedback_latency",
    "throttle_authority",
    "LoopBudget",
    "loop_budget",
]


def slow_start_exit(config: CoreliteConfig, weight: float) -> Tuple[float, float]:
    """When and at what rate a feedback-free slow-start flow goes linear.

    Returns ``(exit_time_after_start, exit_rate)``.  The controller
    doubles from :data:`~repro.core.adaptation.INITIAL_RATE` until the
    *normalized* rate exceeds ``ss_thresh``, then halves — so the exit
    normalized rate lands in ``(ss_thresh/2, ss_thresh]`` depending on
    where the powers of two fall for the flow's weight.  Doubling is evaluated only at edge-epoch
    ticks, so the effective doubling period is ``ss_double_interval``
    rounded up to a whole number of epochs.
    """
    if weight <= 0:
        raise ConfigurationError(f"weight must be positive, got {weight}")
    epochs_per_double = math.ceil(config.ss_double_interval / config.edge_epoch)
    double_period = epochs_per_double * config.edge_epoch
    rate = max(INITIAL_RATE, config.min_rate)
    doubles = 0
    # The doubled rate is also clamped by max_rate, which can end the
    # phase early (the normalized threshold is then never crossed).
    while True:
        doubled = min(config.max_rate, rate * 2.0)
        doubles += 1
        if doubled / weight > config.ss_thresh:
            return doubles * double_period, doubled / 2.0
        if doubled == rate:  # pinned at max_rate: no exit by threshold
            return math.inf, rate
        rate = doubled


def linear_climb_time(config: CoreliteConfig, from_rate: float, to_rate: float) -> float:
    """Seconds for the linear phase to climb ``from_rate -> to_rate``
    assuming no feedback (``alpha`` per edge epoch)."""
    if to_rate < from_rate:
        raise ConfigurationError("to_rate must be >= from_rate")
    epochs = (to_rate - from_rate) / config.alpha
    return epochs * config.edge_epoch


def oscillation_band(
    config: CoreliteConfig, fair_rate: float, feedback_per_event: float = 1.0
) -> Tuple[float, float]:
    """The steady-state LIMD sawtooth band around ``fair_rate``.

    Between congestion events a flow climbs by ``alpha`` per epoch; each
    congestion event knocks it down by ``beta * m``.  With events arriving
    whenever the flow is above its share, the flow oscillates roughly in
    ``[fair - beta*m, fair + alpha]`` per epoch granularity.  This is a
    coarse bound (events are stochastic), meant for sanity checks and
    test tolerances rather than precision.
    """
    if fair_rate <= 0:
        raise ConfigurationError(f"fair_rate must be positive, got {fair_rate}")
    down = config.beta * feedback_per_event
    up = config.alpha
    return (max(0.0, fair_rate - down - up), fair_rate + down + up)


def feedback_latency(
    config: CoreliteConfig, reverse_path_delay: float
) -> float:
    """Worst-case lag from queue build-up to a rate reduction.

    One core epoch to detect (`qavg` is epoch-averaged), one more for the
    selective scheme to arm its selection probability, the reverse-path
    propagation of the feedback marker, and up to one edge epoch until
    the edge acts on it.
    """
    if reverse_path_delay < 0:
        raise ConfigurationError("reverse_path_delay must be >= 0")
    return 2.0 * config.core_epoch + reverse_path_delay + config.edge_epoch


def throttle_authority(
    config: CoreliteConfig, total_normalized_rate: float, eligible_fraction: float = 0.5
) -> float:
    """Maximum sustainable rate reduction, pkt/s per second.

    The feedback supply is the marker rate ``Σ bg/w / K1``; only markers
    with labels at or above the running average are eligible
    (``eligible_fraction`` ≈ 0.5 at equilibrium); each echoed marker is
    worth ``beta`` pkt/s of reduction.
    """
    if total_normalized_rate < 0:
        raise ConfigurationError("total_normalized_rate must be >= 0")
    if not 0 < eligible_fraction <= 1:
        raise ConfigurationError("eligible_fraction must be in (0, 1]")
    markers_per_second = total_normalized_rate / config.k1
    return markers_per_second * eligible_fraction * config.beta


@dataclass(frozen=True)
class LoopBudget:
    """The stability budget of one bottleneck link's control loop."""

    increase_pressure: float   # pkt/s^2 the flows add when unmarked
    throttle_authority: float  # pkt/s^2 the feedback can remove
    latency: float             # s from buildup to reaction
    overshoot_packets: float   # queue growth during one latency at full pressure

    @property
    def stable(self) -> bool:
        """Whether feedback can outpace the linear increase at all."""
        return self.throttle_authority > self.increase_pressure


def loop_budget(
    config: CoreliteConfig,
    num_flows: int,
    total_normalized_rate: float,
    reverse_path_delay: float,
) -> LoopBudget:
    """Assemble the stability budget for a link (DESIGN.md §9).

    ``overshoot_packets`` estimates how much queue accumulates between a
    rate excursion and the first effective throttle; comparing it to the
    buffer size predicts whether transients cause tail drops.
    """
    if num_flows < 1:
        raise ConfigurationError(f"num_flows must be >= 1, got {num_flows}")
    pressure = num_flows * config.alpha / config.edge_epoch
    authority = throttle_authority(config, total_normalized_rate)
    latency = feedback_latency(config, reverse_path_delay)
    overshoot = 0.5 * pressure * latency * latency  # integral of a ramp
    return LoopBudget(
        increase_pressure=pressure,
        throttle_authority=authority,
        latency=latency,
        overshoot_packets=overshoot,
    )
