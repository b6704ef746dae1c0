"""One generator per figure of the paper's evaluation (§4).

Every generator builds the exact workload of the corresponding figure,
runs it (optionally time-compressed for fast benches), and returns the
series the figure plots plus the analytically expected rates.  The
mapping to the paper:

======== ==========================================================
FIG3/4   §4.1 — 20 flows on Topology 1, weights ``WEIGHTS_41``,
         flows 1/9/10/11/16 alive only in the middle phase.
         Fig. 3 plots allotted rate, Fig. 4 cumulative service.
FIG5/6   §4.2 — 10 flows, weight ceil(i/2), simultaneous start on a
         single congested link; Corelite (5) vs CSFQ (6).
FIG7/8   §4.3 — 20 flows on Topology 1, weights ``WEIGHTS_43``,
         entering 1 s apart; Corelite (7) vs CSFQ (8).
FIG9/10  §4.3 — same but each flow lives 60 s, stops, restarts 5 s
         later; Corelite (9) vs CSFQ (10).
======== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.builder import CloudBuilder
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import (
    WEIGHTS_41,
    WEIGHTS_43,
    churn_schedule,
    fig3_schedule,
    staggered_schedule,
    startup_flows,
    topology1_flows,
)
from repro.experiments.topospec import FlowSpec, TopologySpec

__all__ = [
    "Fig34Result",
    "ComparisonResult",
    "figure3_4",
    "figure5_6",
    "figure7_8",
    "figure9_10",
]


@dataclass
class Fig34Result:
    """Figures 3 and 4: one Corelite run with three phases."""

    result: RunResult
    #: Phase boundaries (start of phase 1, 2, 3 and end of run), seconds.
    phase_times: Tuple[float, float, float, float]
    #: Expected rate per flow in each of the three phases.
    expected_by_phase: Tuple[Dict[int, float], Dict[int, float], Dict[int, float]]
    scale: float

    def phase_window(self, phase: int, settle: float = 0.6) -> Tuple[float, float]:
        """A measurement window inside phase 1/2/3, skipping the first
        ``settle`` fraction of the phase (convergence transient)."""
        if phase not in (1, 2, 3):
            raise ConfigurationError(f"phase must be 1, 2 or 3, got {phase}")
        start = self.phase_times[phase - 1]
        stop = self.phase_times[phase]
        return (start + settle * (stop - start), stop)


@dataclass
class ComparisonResult:
    """A Corelite run and a CSFQ run of the same workload (Figs 5-10)."""

    corelite: RunResult
    csfq: RunResult
    #: Expected steady-state rates with every flow active.
    expected: Dict[int, float]

    def schemes(self) -> Tuple[Tuple[str, RunResult], ...]:
        return (("corelite", self.corelite), ("csfq", self.csfq))


def figure3_4(
    scale: float = 1.0,
    seed: int = 0,
    sample_interval: float = 1.0,
) -> Fig34Result:
    """Figures 3 ("Instantaneous Rate") and 4 ("Cumulative Service").

    ``scale`` compresses the 800 s schedule; the paper's phase structure
    (all-but-five flows, all flows, all-but-five again) is preserved.
    """
    schedules = fig3_schedule(scale)
    specs = topology1_flows(WEIGHTS_41, schedules)
    builder = CloudBuilder(TopologySpec.chain(4), "corelite", seed=seed)
    duration = 800.0 * scale
    result = builder.add_flows(specs).run(until=duration, sample_interval=sample_interval)

    phase_times = (0.0, 250.0 * scale, 500.0 * scale, 750.0 * scale)
    expected_by_phase = (
        result.expected_rates(at_time=100.0 * scale),
        result.expected_rates(at_time=400.0 * scale),
        result.expected_rates(at_time=600.0 * scale),
    )
    return Fig34Result(
        result=result,
        phase_times=phase_times,
        expected_by_phase=expected_by_phase,
        scale=scale,
    )


def _compare(
    num_cores: int,
    flows: Sequence[FlowSpec],
    seed: int,
    duration: float,
    sample_interval: float,
    expected_at: float,
) -> ComparisonResult:
    """The same chain and flows under Corelite, then under CSFQ."""
    corelite, csfq = [
        CloudBuilder(TopologySpec.chain(num_cores), scheme, seed=seed)
        .add_flows(flows)
        .run(until=duration, sample_interval=sample_interval)
        for scheme in ("corelite", "csfq")
    ]
    return ComparisonResult(
        corelite=corelite,
        csfq=csfq,
        expected=corelite.expected_rates(at_time=expected_at),
    )


def figure5_6(
    duration: float = 80.0,
    num_flows: int = 10,
    seed: int = 0,
    sample_interval: float = 1.0,
) -> ComparisonResult:
    """Figures 5/6: simultaneous startup of 10 flows, weight ceil(i/2)."""
    return _compare(
        2, startup_flows(num_flows), seed, duration, sample_interval,
        expected_at=duration / 2,
    )


def figure7_8(
    duration: float = 80.0,
    gap: float = 1.0,
    seed: int = 0,
    sample_interval: float = 1.0,
) -> ComparisonResult:
    """Figures 7/8: 20 Topology-1 flows entering ``gap`` seconds apart."""
    schedules = staggered_schedule(num_flows=20, gap=gap)
    specs = topology1_flows(WEIGHTS_43, schedules)
    return _compare(
        4, specs, seed, duration, sample_interval, expected_at=duration - 1.0,
    )


def figure9_10(
    duration: float = 160.0,
    gap: float = 1.0,
    lifetime: float = 60.0,
    restart_after: float = 5.0,
    seed: int = 0,
    sample_interval: float = 1.0,
) -> ComparisonResult:
    """Figures 9/10: the §4.3 churn — live 60 s, stop, restart 5 s later."""
    schedules = churn_schedule(
        num_flows=20, gap=gap, lifetime=lifetime, restart_after=restart_after
    )
    specs = topology1_flows(WEIGHTS_43, schedules)
    return _compare(
        4, specs, seed, duration, sample_interval, expected_at=duration - 1.0,
    )
