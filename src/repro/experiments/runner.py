"""Run results.

A :class:`RunResult` is what ``Cloud.run`` returns: per-flow sampled
series of the quantities the paper plots (allotted rate ``bg``, delivered
throughput, cumulative service), loss/drop accounting, and the weighted
max-min *expected rates* for any instant of the run (computed from the
actual topology and the flows active at that instant, exactly as §4.1 of
the paper derives its expected values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fairness.maxmin import FlowDemand, weighted_maxmin
from repro.fairness.metrics import weighted_jain_index
from repro.sim.monitor import Series

__all__ = ["FlowRecord", "RunResult"]


@dataclass
class FlowRecord:
    """Everything measured about one flow during a run."""

    flow_id: int
    weight: float
    schedule: Tuple[Tuple[float, float], ...]
    path_links: Tuple[str, ...]
    rate_series: Series
    throughput_series: Series
    cumulative_series: Series
    delivered: int = 0
    losses: int = 0
    #: Mean offered load (inf for the paper's always-backlogged sources);
    #: caps the flow's expected rate in the max-min reference allocation.
    demand: float = math.inf
    #: One-way delay summary (see repro.sim.delay.DelayTracker.summary),
    #: filled after the run.
    delay: Dict[str, float] = field(default_factory=dict)

    def active_at(self, time: float) -> bool:
        """Whether the flow's schedule has it transmitting at ``time``."""
        return any(start <= time < stop for start, stop in self.schedule)


class RunResult:
    """Measurements and derived quantities from one simulation run."""

    def __init__(
        self,
        scheme: str,
        duration: float,
        capacities: Mapping[str, float],
        flows: Dict[int, FlowRecord],
        total_drops: int,
        seed: int,
        queue_series: Optional[Dict[str, Series]] = None,
        dynamics: Optional[Dict] = None,
        policy_drops: int = 0,
    ) -> None:
        self.scheme = scheme
        self.duration = duration
        self.capacities = dict(capacities)
        self.flows = flows
        self.total_drops = total_drops
        #: Data packets a core dropped by policy ahead of its buffer (CSFQ's
        #: probabilistic filter), which ``total_drops`` does not count.
        self.policy_drops = policy_drops
        self.seed = seed
        #: Per-link queue occupancy samples (only when the run recorded them).
        self.queue_series: Dict[str, Series] = queue_series or {}
        #: Topology-dynamics summary (events applied, each one a reroute;
        #: failure drops, post-event reference rates); None for static runs.
        self.dynamics: Optional[Dict] = dynamics

    # -- basic accessors -------------------------------------------------

    @property
    def flow_ids(self) -> List[int]:
        return sorted(self.flows)

    def weights(self) -> Dict[int, float]:
        return {fid: record.weight for fid, record in self.flows.items()}

    def record(self, flow_id: int) -> FlowRecord:
        try:
            return self.flows[flow_id]
        except KeyError:
            raise ConfigurationError(f"no such flow in result: {flow_id}") from None

    # -- aggregates ----------------------------------------------------------

    def mean_rates(self, window: Tuple[float, float]) -> Dict[int, float]:
        """Mean allotted rate per flow over ``window = (t0, t1)``."""
        t0, t1 = window
        return {
            fid: record.rate_series.window(t0, t1).mean()
            for fid, record in self.flows.items()
            if len(record.rate_series.window(t0, t1)) > 0
        }

    def mean_throughputs(self, window: Tuple[float, float]) -> Dict[int, float]:
        """Mean delivered rate per flow over ``window = (t0, t1)``."""
        t0, t1 = window
        return {
            fid: record.throughput_series.window(t0, t1).mean()
            for fid, record in self.flows.items()
            if len(record.throughput_series.window(t0, t1)) > 0
        }

    def total_delivered(self) -> int:
        return sum(record.delivered for record in self.flows.values())

    def total_losses(self) -> int:
        return sum(record.losses for record in self.flows.values())

    # -- reference allocation ---------------------------------------------

    def expected_rates(self, at_time: float) -> Dict[int, float]:
        """Weighted max-min expectation for the flows active at ``at_time``.

        This reproduces the paper's §4.1 expected-rate computation: only
        the flows transmitting at that instant compete, each on its static
        shortest path (``path_links``, :meth:`Cloud.flow_path_links` as
        the run began), and capacity is split max-min in proportion to
        weights.
        """
        demands = [
            FlowDemand(fid, record.weight, record.path_links, demand=record.demand)
            for fid, record in self.flows.items()
            if record.active_at(at_time)
        ]
        if not demands:
            return {}
        return weighted_maxmin(self.capacities, demands)

    def fairness_at(self, window: Tuple[float, float]) -> float:
        """Weighted Jain index of mean allotted rates over ``window``.

        Only meaningful when every measured flow is active and they share
        one bottleneck; multi-bottleneck runs should compare against
        :meth:`expected_rates` instead.
        """
        rates = self.mean_rates(window)
        active = [fid for fid in rates if self.flows[fid].active_at(sum(window) / 2)]
        if not active:
            raise ConfigurationError(f"no active flows in window {window}")
        return weighted_jain_index(
            [rates[fid] for fid in active],
            [self.flows[fid].weight for fid in active],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResult(scheme={self.scheme!r}, flows={len(self.flows)}, "
            f"duration={self.duration}, drops={self.total_drops})"
        )
