"""The five corebench workloads: flow tables and cloud builders.

Everything here is copied in on purpose (the §4.1 flow table from
``repro.experiments.scenarios``, the dense/vectorized clouds from
``repro.perf``): those modules are refactor targets, and a benchmark that
imports them would move whenever they do.  Only the simulator's public
construction API is used.

Closed, deterministic load: the simulator generates its own (backlogged)
traffic, and the only input that reaches it is the seed handed to
``CloudBuilder(seed=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a cloud recipe, a horizon and its fairness floor."""

    name: str
    #: Why the workload exists (one line; BENCHMARK.json carries the same text).
    why: str
    #: Simulated seconds of one run.
    horizon: float
    #: Correctness floor for ``wjain`` at the full horizon.
    wjain_floor: float
    #: seed -> configured, un-built CloudBuilder.
    make_builder: Callable[[int], CloudBuilder]
    #: > 1 runs through ``build_parallel()`` / ``ParallelCloud``.
    partitions: int = 1
    #: Times one run sets the cloud up (the last one is run): a 6 ms setup
    #: is sampled several times, a 2 s one once.  A fixed count, so that
    #: peak RSS does not depend on how fast the host happened to be.
    setup_samples: int = 1


# -- §4.1: Topology 1, twenty flows on a chain of four cores ------------------

#: flow id -> (ingress core, egress core): flows 1-5 cross only C1-C2,
#: 6-8 cross C1-C2-C3, 9-10 all three congested links, 11-12 only C2-C3,
#: 13-15 C2-C3-C4, 16-20 only C3-C4.
_CHAIN4_PATHS: Dict[int, Tuple[str, str]] = {
    **{fid: ("C1", "C2") for fid in range(1, 6)},
    **{fid: ("C1", "C3") for fid in range(6, 9)},
    **{fid: ("C1", "C4") for fid in range(9, 11)},
    **{fid: ("C2", "C3") for fid in range(11, 13)},
    **{fid: ("C2", "C4") for fid in range(13, 16)},
    **{fid: ("C3", "C4") for fid in range(16, 21)},
}


def _chain4_weight(fid: int) -> float:
    """§4.1 weights: every congested link carries exactly 20 weight units."""
    if fid in (5, 15):
        return 3.0
    if fid in (1, 11, 16):
        return 1.0
    return 2.0


def _chain4_flows() -> List[FlowPathSpec]:
    return [
        FlowPathSpec(
            fid,
            weight=_chain4_weight(fid),
            ingress_core=ingress,
            egress_core=egress,
        )
        for fid, (ingress, egress) in sorted(_CHAIN4_PATHS.items())
    ]


def _chain4(scheme: str) -> Callable[[int], CloudBuilder]:
    def make(seed: int) -> CloudBuilder:
        builder = CloudBuilder(TopologySpec.chain(4), scheme=scheme, seed=seed)
        return builder.add_flows(_chain4_flows())

    return make


# -- dense scalar cloud (serial and 2-partition PDES share it) ----------------

#: Scalar flows in the dense cloud.  ISSUE 11 sized it at 1024 (9.9 s of
#: setup, 854 MB); the benchmark contract's time cap (114 invocations in
#: 3420 s, three runs each) cannot afford that, so it is 384: still > 256
#: events in flight (calendar tier engaged), and setup is still all-pairs
#: routing (1.4 s of finalize against 0.06 s of build, 173 MB).
DENSE_FLOWS = 384


def _dense(partitions: int) -> Callable[[int], CloudBuilder]:
    """8-core chain; four two-core groups of local flows plus 1/16 of the
    flows crossing ``C1 -> C8`` so every cut carries data and feedback."""

    def make(seed: int) -> CloudBuilder:
        flows = DENSE_FLOWS
        spec = TopologySpec.chain(
            8, capacity_pps=8.0 * (flows // 4), name=f"dense-{flows}"
        )
        builder = CloudBuilder(
            spec, scheme="corelite", seed=seed, partitions=partitions
        )
        cross = flows // 16
        for fid in range(1, flows + 1):
            if fid <= flows - cross:
                group = (fid - 1) % 4
                ends = (f"C{2 * group + 1}", f"C{2 * group + 2}")
            else:
                ends = ("C1", "C8")
            builder.add_flow(
                FlowPathSpec(
                    fid,
                    weight=1.0 + (fid % 4),
                    ingress_core=ends[0],
                    egress_core=ends[1],
                )
            )
        return builder

    return make


# -- dense vectorized cloud: every opt-in fast path at once -------------------

VEC_MEMBERS = 16384
VEC_AGGREGATE = 256


def _dense_vec(seed: int) -> CloudBuilder:
    spec = TopologySpec.chain(
        2, capacity_pps=8.0 * VEC_MEMBERS, name=f"vec-{VEC_MEMBERS}"
    )
    builder = CloudBuilder(
        spec, scheme="corelite", seed=seed, vectorized=True, train_batch=8
    )
    for fid in range(1, VEC_MEMBERS // VEC_AGGREGATE + 1):
        builder.add_flow(
            FlowPathSpec(
                fid,
                weight=1.0 + (fid % 4),
                ingress_core="C1",
                egress_core="C2",
                aggregate=VEC_AGGREGATE,
            )
        )
    return builder


_ALL = (
    Workload(
        name="paper_chain4",
        why=(
            "paper 4.1 chain of 4 cores, 20 flows, corelite, all defaults: heap-tier "
            "engine + link + shaper per packet; calendar/vectorized/train work must not move it"
        ),
        horizon=100.0,
        wjain_floor=0.95,
        make_builder=_chain4("corelite"),
        setup_samples=8,
    ),
    Workload(
        name="csfq_chain4",
        why=(
            "same spec and flows under weighted CSFQ: per-packet estimator, drop coin and "
            "relabel in the core, loss-notify control; the paper's baseline for fairness and loss"
        ),
        horizon=100.0,
        wjain_floor=0.95,
        make_builder=_chain4("csfq"),
        setup_samples=8,
    ),
    Workload(
        name="dense_scalar",
        why=(
            "8-core chain, 384 scalar corelite flows, serial: calendar tier, slot-table edge "
            "epochs, per-marker control, build dominated by all-pairs routing (setup_s, peak_rss_mb)"
        ),
        horizon=24.0,
        wjain_floor=0.65,
        make_builder=_dense(1),
    ),
    Workload(
        name="pdes_w2",
        why=(
            "identical flows to dense_scalar as 2 process partitions: the only workload where "
            "experiments.pdes works; byte-identical result, so the pair is the multi-core verdict"
        ),
        horizon=24.0,
        wjain_floor=0.65,
        make_builder=_dense(2),
        partitions=2,
    ),
    Workload(
        name="dense_vec",
        why=(
            "2-core chain, 16384 member flows as 64 aggregate buckets, vectorized edges, batched "
            "control, train_batch=8: every opt-in fast path at once; scalar work must not move it"
        ),
        horizon=10.0,
        wjain_floor=0.95,
        make_builder=_dense_vec,
        setup_samples=5,
    ),
)

#: name -> workload, in reporting order.
WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _ALL}
