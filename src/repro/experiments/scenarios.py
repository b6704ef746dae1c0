"""The paper's §4 workloads.

Topology 1 (Figure 2) is a chain of four cores with three congested links
C1-C2, C2-C3, C3-C4.  Twenty flows are mapped onto it so that:

* flows 1-5 cross only C1-C2, flows 11-12 only C2-C3, flows 16-20 only
  C3-C4 (RTT 240 ms);
* flows 6-8 cross C1-C2 and C2-C3, flows 13-15 cross C2-C3 and C3-C4
  (RTT 320 ms);
* flows 9-10 cross all three congested links (RTT 400 ms).

Two weight assignments appear in the paper:

* ``WEIGHTS_41`` (§4.1, Figures 3/4): flows 5 and 15 have weight 3, flows
  1, 11 and 16 weight 1, all others weight 2 — every congested link then
  carries exactly 20 weight units, so the expected fair share is 25 pkt/s
  per unit weight (33.33 when flows 1, 9, 10, 11, 16 are absent).
* ``WEIGHTS_43`` (§4.3, Figures 7-10): flows 1, 11, 16 have weight 1 and
  flows 5, 10, 15 weight 3, all others 2.

§4.2 (Figures 5/6) instead uses ten flows with weight ``ceil(i/2)`` on a
single congested link.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.experiments.topospec import FlowSpec

__all__ = [
    "PATH_ASSIGNMENT",
    "WEIGHTS_41",
    "WEIGHTS_43",
    "topology1_flows",
    "startup_flows",
    "staggered_schedule",
    "churn_schedule",
    "fig3_schedule",
    "parking_lot_flows",
    "mesh_flows",
]

#: flow id -> (ingress core, egress core) on Topology 1.
PATH_ASSIGNMENT: Dict[int, Tuple[str, str]] = {}
for _fid in range(1, 6):
    PATH_ASSIGNMENT[_fid] = ("C1", "C2")
for _fid in range(6, 9):
    PATH_ASSIGNMENT[_fid] = ("C1", "C3")
for _fid in range(9, 11):
    PATH_ASSIGNMENT[_fid] = ("C1", "C4")
for _fid in range(11, 13):
    PATH_ASSIGNMENT[_fid] = ("C2", "C3")
for _fid in range(13, 16):
    PATH_ASSIGNMENT[_fid] = ("C2", "C4")
for _fid in range(16, 21):
    PATH_ASSIGNMENT[_fid] = ("C3", "C4")


def _weights(threes: Tuple[int, ...], ones: Tuple[int, ...]) -> Dict[int, float]:
    weights = {}
    for fid in range(1, 21):
        if fid in threes:
            weights[fid] = 3.0
        elif fid in ones:
            weights[fid] = 1.0
        else:
            weights[fid] = 2.0
    return weights


#: §4.1 weights: each congested link carries exactly 20 weight units.
WEIGHTS_41: Dict[int, float] = _weights(threes=(5, 15), ones=(1, 11, 16))

#: §4.3 weights (note flow 10, not 5/15 only, carries weight 3 here).
WEIGHTS_43: Dict[int, float] = _weights(threes=(5, 10, 15), ones=(1, 11, 16))


def topology1_flows(
    weights: Dict[int, float],
    schedules: Dict[int, Tuple[Tuple[float, float], ...]],
) -> List[FlowSpec]:
    """Build the 20 Topology-1 flow specs with the given weights/schedules."""
    if set(weights) != set(PATH_ASSIGNMENT):
        raise ConfigurationError("weights must cover flows 1..20 exactly")
    specs = []
    for fid in sorted(PATH_ASSIGNMENT):
        ingress, egress = PATH_ASSIGNMENT[fid]
        specs.append(
            FlowSpec(
                flow_id=fid,
                weight=weights[fid],
                ingress_core=ingress,
                egress_core=egress,
                schedule=schedules.get(fid, ((0.0, math.inf),)),
            )
        )
    return specs


def fig3_schedule(scale: float = 1.0) -> Dict[int, Tuple[Tuple[float, float], ...]]:
    """§4.1 dynamics: flows 1, 9, 10, 11, 16 live on [250, 500) s; the rest
    on [0, 750) s.  ``scale`` compresses all times (benches run scale<1)."""
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    late = ((250.0 * scale, 500.0 * scale),)
    normal = ((0.0, 750.0 * scale),)
    return {fid: (late if fid in (1, 9, 10, 11, 16) else normal) for fid in range(1, 21)}


def startup_flows(num_flows: int = 10) -> List[FlowSpec]:
    """§4.2 workload: ``num_flows`` flows, weight of flow i = ceil(i/2),
    all sharing the single congested link of a 2-core network."""
    if num_flows < 1:
        raise ConfigurationError(f"num_flows must be >= 1, got {num_flows}")
    return [
        FlowSpec(
            flow_id=i,
            weight=float(math.ceil(i / 2)),
            ingress_core="C1",
            egress_core="C2",
        )
        for i in range(1, num_flows + 1)
    ]


def parking_lot_flows(
    hops: int = 3,
    long_weight: float = 2.0,
    cross_weight: float = 1.0,
    cross_per_hop: int = 2,
) -> List[FlowSpec]:
    """The classic parking-lot workload on a ``TopologySpec.parking_lot``.

    Flow 1 is the long flow: weight ``long_weight`` across all ``hops``
    links ``C1 -> C(hops+1)``.  Each hop additionally carries
    ``cross_per_hop`` single-hop cross flows of weight ``cross_weight``.
    With the defaults on 500 pkt/s links every link carries 4 weight
    units, so the weighted max-min reference is 125 pkt/s per unit: the
    long flow gets 250 everywhere while each cross flow gets 125 — the
    allocation per-link *unweighted* fairness (and FIFO) cannot produce.
    """
    if hops < 1:
        raise ConfigurationError(f"hops must be >= 1, got {hops}")
    if cross_per_hop < 1:
        raise ConfigurationError(f"cross_per_hop must be >= 1, got {cross_per_hop}")
    specs = [
        FlowSpec(
            flow_id=1,
            weight=long_weight,
            ingress_core="C1",
            egress_core=f"C{hops + 1}",
        )
    ]
    fid = 2
    for hop in range(1, hops + 1):
        for _ in range(cross_per_hop):
            specs.append(
                FlowSpec(
                    flow_id=fid,
                    weight=cross_weight,
                    ingress_core=f"C{hop}",
                    egress_core=f"C{hop + 1}",
                )
            )
            fid += 1
    return specs


def mesh_flows() -> List[FlowSpec]:
    """Twelve flows over ``TopologySpec.mesh`` congesting every link.

    Each link is exactly fully subscribed at its own uniform fair level,
    but the levels *differ across links*: with the default capacities the
    links A-B, B-D, A-C and the chord B-C all sit at 125 pkt/s per weight
    unit while C-D sits at 250.  Equal-weight flows on different
    bottlenecks therefore deserve rates 2x apart — a per-link loss signal
    that equalizes raw or globally-normalized rates (FIFO) gets this
    wrong, while per-link weighted feedback must hold each flow at its
    own bottleneck's level.  Flows 1-2 cross two congested links (both at
    the same level, like the paper's Topology 1 long flows), every link
    carries at least three flows (so LIMD saw-teeth decorrelate instead
    of phase-locking), and no flow is left claiming a residual — every
    flow sits exactly at its bottleneck's per-unit level, which keeps the
    weighted max-min reference tight enough to assert ~10% tolerances.
    """
    routes: List[Tuple[float, str, str]] = [
        (2.0, "A", "D"),  # 1: A-B + B-D, both congested at 125/unit
        (2.0, "A", "D"),  # 2: ditto
        (1.0, "A", "B"),  # 3: fills A-B to exactly 625
        (1.0, "B", "D"),  # 4: fills B-D to exactly 625
        (2.0, "A", "C"),  # 5: A-C at 125/unit (weight 4 over 500)
        (1.0, "A", "C"),  # 6
        (1.0, "A", "C"),  # 7
        (1.0, "C", "D"),  # 8: C-D at 250/unit (weight 2 over 500)
        (1.0, "C", "D"),  # 9
        (1.0, "B", "C"),  # 10: the chord at 125/unit (weight 3 over 375)
        (1.0, "B", "C"),  # 11
        (1.0, "B", "C"),  # 12
    ]
    return [
        FlowSpec(flow_id=fid, weight=weight, ingress_core=a, egress_core=b)
        for fid, (weight, a, b) in enumerate(routes, start=1)
    ]


def staggered_schedule(
    num_flows: int = 20, gap: float = 1.0
) -> Dict[int, Tuple[Tuple[float, float], ...]]:
    """§4.3 entry dynamics: flow i starts at ``i * gap`` seconds."""
    if gap < 0:
        raise ConfigurationError(f"gap must be >= 0, got {gap}")
    return {fid: ((fid * gap, math.inf),) for fid in range(1, num_flows + 1)}


def churn_schedule(
    num_flows: int = 20,
    gap: float = 1.0,
    lifetime: float = 60.0,
    restart_after: float = 5.0,
) -> Dict[int, Tuple[Tuple[float, float], ...]]:
    """§4.3 churn (Figures 9/10): flow i starts at ``i * gap``, lives
    ``lifetime`` seconds, stops, and restarts ``restart_after`` seconds
    later for the rest of the run."""
    for name, value in (("gap", gap), ("lifetime", lifetime), ("restart_after", restart_after)):
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    schedules = {}
    for fid in range(1, num_flows + 1):
        start = fid * gap
        stop = start + lifetime
        schedules[fid] = ((start, stop), (stop + restart_after, math.inf))
    return schedules
