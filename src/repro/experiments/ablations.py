"""Ablation studies (DESIGN.md §7).

Every ablation runs the §4.2 workload — ten always-on flows with weights
``ceil(i/2)`` sharing one congested link — because it has a closed-form
expectation (16.67 pkt/s per unit weight) and exercises both the
congestion detector and the feedback selector continuously.  Each sweep
returns :class:`AblationPoint` rows with the three quantities the paper's
arguments rest on: packet drops (Corelite's "rate adaptation without
packet loss"), weighted fairness, and mean absolute error against the
weighted max-min expectation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import math

from repro.aqm.decbit import DecbitQueue
from repro.aqm.fred import FredQueue
from repro.aqm.red import RedQueue
from repro.aqm.wfq import WfqQueue
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.experiments.builder import CloudBuilder
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import startup_flows
from repro.experiments.topospec import FlowSpec, TopologySpec
from repro.fairness.metrics import mean_absolute_error, weighted_jain_index
from repro.sim.sources import onoff_source, poisson_source

__all__ = [
    "AblationPoint",
    "run_startup_workload",
    "sweep_edge_epoch",
    "sweep_core_epoch",
    "sweep_qthresh",
    "sweep_fn_k",
    "sweep_k1",
    "sweep_alpha",
    "sweep_beta",
    "compare_feedback_schemes",
    "compare_queue_disciplines",
    "compare_traffic_patterns",
    "compare_congestion_estimators",
    "sweep_core_state",
]


@dataclass
class AblationPoint:
    """Outcome of one parameter setting."""

    label: str
    value: object
    drops: int
    losses: int
    weighted_jain: float
    mae_vs_expected: float

    def as_row(self) -> Tuple[object, int, int, float, float]:
        return (self.value, self.drops, self.losses, self.weighted_jain, self.mae_vs_expected)


def _startup_weight(fid: int) -> float:
    """The §4.2 workload's weights: flow i has weight ceil(i/2)."""
    return float(math.ceil(fid / 2))


def _measure(result: RunResult, window: Tuple[float, float], label: str, value,
             throughput: bool = False) -> AblationPoint:
    """One point; ``throughput`` scores delivered rather than allotted rates."""
    rates = (result.mean_throughputs if throughput else result.mean_rates)(window)
    expected = result.expected_rates(at_time=sum(window) / 2)
    weights = result.weights()
    flow_ids = sorted(expected)
    return AblationPoint(
        label=label,
        value=value,
        drops=result.total_drops,
        losses=result.total_losses(),
        weighted_jain=weighted_jain_index(
            [rates[f] for f in flow_ids], [weights[f] for f in flow_ids]
        ),
        mae_vs_expected=mean_absolute_error(rates, expected),
    )


def run_startup_workload(
    builder: CloudBuilder,
    duration: float = 80.0,
    num_flows: int = 10,
) -> RunResult:
    """Run the §4.2 workload on the cloud a fresh ``builder`` describes."""
    return builder.add_flows(startup_flows(num_flows)).run(until=duration)


def _sweep_config_field(
    field: str,
    values: Sequence[object],
    duration: float,
    seed: int,
    base: Optional[CoreliteConfig] = None,
) -> List[AblationPoint]:
    base_config = base if base is not None else CoreliteConfig()
    window = (0.75 * duration, duration)
    points = []
    for value in values:
        config = dataclasses.replace(base_config, **{field: value})
        result = run_startup_workload(
            CloudBuilder(TopologySpec.chain(2), "corelite", seed=seed, config=config),
            duration=duration,
        )
        points.append(_measure(result, window, field, value))
    return points


def sweep_edge_epoch(
    values: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 1.0),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """ABL-EPOCH (edge side): adaptation period vs drops and fairness."""
    return _sweep_config_field("edge_epoch", values, duration, seed)


def sweep_core_epoch(
    values: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """ABL-EPOCH (core side): congestion epoch vs drops and fairness.

    The paper reports Corelite is "not very sensitive" to the core epoch.
    """
    return _sweep_config_field("core_epoch", values, duration, seed)


def sweep_qthresh(
    values: Sequence[float] = (4.0, 8.0, 16.0, 24.0),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """ABL-QTHRESH: the incipient-congestion threshold."""
    return _sweep_config_field("qthresh", values, duration, seed)


def sweep_fn_k(
    values: Sequence[float] = (0.0, 0.005, 0.02, 0.1),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """ABL-K: the self-correcting constant in the Fn formula.

    §3.1 predicts ``k = 0`` lets queues grow until overflow because the
    M/M/1 term saturates; any small positive ``k`` bounds the queue.
    """
    return _sweep_config_field("fn_k", values, duration, seed)


def sweep_k1(
    values: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """Marker spacing constant K1 (the §4.4 "marking threshold")."""
    return _sweep_config_field("k1", values, duration, seed)


def sweep_alpha(
    values: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """Linear-increase constant: probing speed vs loss pressure."""
    return _sweep_config_field("alpha", values, duration, seed)


def sweep_beta(
    values: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    duration: float = 80.0,
    seed: int = 0,
) -> List[AblationPoint]:
    """Per-marker decrease: throttle authority vs oscillation depth."""
    return _sweep_config_field("beta", values, duration, seed)


def compare_feedback_schemes(
    duration: float = 80.0, seed: int = 0
) -> List[AblationPoint]:
    """ABL-FEEDBACK: marker cache vs the stateless selective scheme."""
    window = (0.75 * duration, duration)
    points = []
    for scheme in (FeedbackScheme.MARKER_CACHE, FeedbackScheme.SELECTIVE):
        config = CoreliteConfig(feedback_scheme=scheme)
        result = run_startup_workload(
            CloudBuilder(TopologySpec.chain(2), "corelite", seed=seed, config=config),
            duration=duration,
        )
        points.append(_measure(result, window, "feedback_scheme", scheme.value))
    return points


def compare_queue_disciplines(
    duration: float = 80.0, seed: int = 0
) -> List[AblationPoint]:
    """ABL-AQM: Corelite vs CSFQ vs loss-feedback FIFO/RED/FRED/DECbit/WFQ.

    The shared-buffer variants give congestion feedback (losses) without
    any weight information, so they cannot produce *weighted* fairness —
    their weighted Jain index lands around 0.7.  The WFQ reference *does*
    achieve weighted fairness (its per-flow scheduling plus buffer
    stealing make losses target exactly the flows above their weighted
    share), which is the paper's §1 premise: Intserv-style per-flow state
    in the core solves the problem — at the price of that state and of
    converging through packet losses.  Corelite matches WFQ's fairness
    with no core flow state and an order of magnitude fewer losses.
    """
    window = (0.75 * duration, duration)

    # (label, scheme, queue factory or None for the default drop-tail)
    candidates = [
        ("corelite", "corelite", None),
        ("csfq", "csfq", None),
        ("fifo-droptail", "fifo", None),
        ("fifo-red", "fifo", lambda: RedQueue(capacity=40.0)),
        ("fifo-fred", "fifo", lambda: FredQueue(capacity=40.0)),
        ("fifo-decbit", "fifo", lambda: DecbitQueue(capacity=40.0)),
        ("fifo-wfq", "fifo", lambda: WfqQueue(capacity=40.0, weight_of=_startup_weight)),
    ]
    points = []
    for name, scheme, queue_factory in candidates:
        result = run_startup_workload(
            CloudBuilder(
                TopologySpec.chain(2), scheme, seed=seed, queue_factory=queue_factory
            ),
            duration=duration,
        )
        points.append(_measure(result, window, "scheme", name))
    return points


def compare_congestion_estimators(
    duration: float = 80.0, seed: int = 0
) -> List[AblationPoint]:
    """ABL-ESTIMATOR — §3.1's modularity claim, demonstrated.

    "The congestion estimation module can be replaced with no impact on
    the rest of the Corelite mechanisms": the same workload under the
    paper's M/M/1+cubic formula and under a plain linear detector must
    reach the same weighted-fair allocation (queue dynamics may differ).
    """
    return _sweep_config_field("congestion_estimator", ("mm1", "linear"), duration, seed)


def _traffic_pattern_flows(pattern: str) -> List[FlowSpec]:
    """Six weighted flows; the non-backlogged patterns replace half of
    them with demand-limited traffic at roughly half their fair share."""
    weights = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    specs = []
    for fid, weight in enumerate(weights, start=1):
        source = None
        if fid % 2 == 0:
            # fair share per unit weight with all backlogged: 500/12 ≈ 42
            target = 0.5 * weight * (500.0 / 12.0)
            if pattern == "poisson":
                source = poisson_source(target)
            elif pattern == "onoff":
                # bursty: 4x peak, 25% duty cycle -> same mean
                source = onoff_source(4.0 * target, mean_on=0.25, mean_off=0.75)
        specs.append(FlowSpec(flow_id=fid, weight=weight, source=source))
    return specs


def compare_traffic_patterns(
    duration: float = 120.0, seed: int = 0
) -> List[AblationPoint]:
    """ABL-TRAFFIC — §3.1/§2.2 robustness to the input traffic pattern.

    The ``Fn`` formula is derived under Poisson assumptions; the paper
    claims it "works reasonably well even if the Poisson traffic
    assumptions do not hold" and that marker feedback is "fairly
    insensitive to bursty flows".  Three patterns share one bottleneck:
    all-backlogged (the paper's default), half-Poisson, and half-ON/OFF
    bursty.  The expectation is computed by demand-aware weighted max-min,
    so the MAE column is comparable across patterns.
    """
    window = (0.75 * duration, duration)
    points = []
    for pattern in ("backlogged", "poisson", "onoff"):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=seed)
        result = builder.add_flows(_traffic_pattern_flows(pattern)).run(until=duration)
        points.append(_measure(result, window, "traffic", pattern, throughput=True))
    return points


def _peak_core_state(design: str, num_flows: int, duration: float, seed: int) -> int:
    """Peak per-flow state entries at C1's bottleneck, sampled every 50 ms."""
    scheme, kwargs = {
        "corelite-selective": ("corelite", {}),
        "corelite-cache": (
            "corelite",
            {"config": CoreliteConfig(feedback_scheme=FeedbackScheme.MARKER_CACHE)},
        ),
        "csfq": ("csfq", {}),
        "wfq": ("fifo", {"queue_factory": lambda: WfqQueue(40.0, weight_of=_startup_weight)}),
        "fred": ("fifo", {"queue_factory": lambda: FredQueue(capacity=40.0)}),
    }[design]
    net = CloudBuilder(TopologySpec.chain(2), scheme, seed=seed, **kwargs).add_flows(
        startup_flows(num_flows)
    ).build()
    queue = net.topology.links["C1->C2"].queue
    state = {
        "wfq": lambda: queue.per_flow_state_size,
        "fred": lambda: queue.active_flows,
    }.get(design, net.core_router("C1").flow_state_entries)
    peak = 0

    def sample() -> None:
        nonlocal peak
        peak = max(peak, state())

    net.sim.every(0.05, sample)
    net.run(until=duration)
    return peak


#: The designs :func:`sweep_core_state` compares, in table order.
_STATE_DESIGNS = ("corelite-selective", "corelite-cache", "csfq", "wfq", "fred")


def sweep_core_state(
    flow_counts: Sequence[int] = (4, 8, 16, 32),
    duration: float = 30.0,
    seed: int = 0,
) -> Dict[str, List[int]]:
    """STATE — the §1 core-stateless thesis, measured.

    Runs the §4.2 workload with each of ``flow_counts`` flows under five
    designs and records the peak per-flow state entries at the
    bottleneck: Corelite's selective scheme and weighted CSFQ keep
    per-link scalars only, Corelite's marker cache a history bounded by
    its configured size, and WFQ (finish tags + backlogs) and FRED at the
    core an entry per buffered flow.  Returns design -> one peak per flow
    count.
    """
    return {
        design: [_peak_core_state(design, n, duration, seed) for n in flow_counts]
        for design in _STATE_DESIGNS
    }
