"""Performance measurement and regression tracking (the proof layer).

Every figure reproduction executes millions of per-packet events, and the
ROADMAP's north star is a system that runs as fast as the hardware
allows.  Claims like "the engine got faster" are worthless without a
trajectory, so this module owns one:

* a deterministic micro + scenario bench suite (:data:`BENCHES`) that
  exercises the event engine, the link datapath, packet allocation and a
  full spec-built cloud;
* a ``BENCH_<label>.json`` report format (:class:`BenchReport`) with
  per-bench medians, work-unit throughput, wall time and peak RSS;
* a diff (:func:`diff_reports`) against any previous report with a
  configurable regression threshold — the CI perf-smoke gate.

The suite runs against *any* revision of the simulator: benches probe for
the fast-path scheduling calls with ``getattr`` and fall back to the
portable API, which is what makes before/after pairs comparable (the
committed ``BENCH_seed.json`` was produced by this very suite on the
pre-optimization engine).

Throughput is reported as work units per second, where the unit is the
natural one for each bench (``events`` for engine benches, ``packets``
for datapath benches): events-per-packet-hop is exactly what the hot-path
optimizations change, so packet benches must be judged by packets moved,
not by events burned.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro._version import __version__
from repro.errors import ConfigurationError

__all__ = [
    "BenchResult",
    "BenchReport",
    "BenchRegression",
    "BENCHES",
    "run_bench",
    "run_suite",
    "diff_reports",
    "load_report",
    "profile_summary",
    "format_report_table",
    "format_diff_table",
]

#: Report schema version (bump when the JSON layout changes).
SCHEMA = 1


# ---------------------------------------------------------------------------
# bench definitions
# ---------------------------------------------------------------------------


def _preferred_schedule(sim):
    """The engine's cheapest fire-and-forget scheduling call.

    Falls back to the cancellable :meth:`Simulator.schedule` on revisions
    that predate the fast path, so one suite can measure both sides of
    the optimization.
    """
    return getattr(sim, "schedule_fast", sim.schedule)


def _bench_event_loop(scale: float) -> Tuple[int, float]:
    """Schedule-and-run chained events through the preferred call."""
    from repro.sim.engine import Simulator

    total = max(1000, int(200_000 * scale))
    sim = Simulator()
    sched = _preferred_schedule(sim)
    remaining = [total]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sched(0.001, tick)

    sched(0.001, tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    if sim.events_executed != total:
        raise ConfigurationError(
            f"event_loop bench executed {sim.events_executed} != {total}"
        )
    return total, elapsed


def _bench_event_loop_cancellable(scale: float) -> Tuple[int, float]:
    """The same chain through the handle-allocating cancellable path."""
    from repro.sim.engine import Simulator

    total = max(1000, int(100_000 * scale))
    sim = Simulator()
    remaining = [total]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return total, elapsed


def _bench_link_forwarding(scale: float) -> Tuple[int, float]:
    """Push a backlogged burst of data packets through one link."""
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    from repro.sim.node import Node
    from repro.sim.packet import Packet
    from repro.sim.queues import DropTailQueue

    total = max(500, int(20_000 * scale))

    class Sink(Node):
        def __init__(self) -> None:
            super().__init__("B")
            self.count = 0

        def receive(self, packet, link) -> None:
            self.count += 1

    sim = Simulator()
    sink = Sink()
    link = Link(sim, "A->B", "A", sink, 1e6, 0.001, DropTailQueue(2 * total))
    packets = [
        Packet.data(1, "A", "B", seq=i, now=0.0, sim=sim) for i in range(total)
    ]
    started = time.perf_counter()
    for packet in packets:
        link.send(packet)
    sim.run()
    elapsed = time.perf_counter() - started
    if sink.count != total:
        raise ConfigurationError(f"link bench delivered {sink.count} != {total}")
    return total, elapsed


def _bench_periodic_ticks(scale: float) -> Tuple[int, float]:
    """Many concurrent periodic tasks (epoch clocks, samplers)."""
    from repro.sim.engine import Simulator

    tasks = 50
    horizon = max(1.0, 40.0 * scale)
    sim = Simulator()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    for i in range(tasks):
        sim.every(0.01, tick, first_delay=0.01 + i * 1e-5)
    started = time.perf_counter()
    sim.run(until=horizon)
    elapsed = time.perf_counter() - started
    return fired[0], elapsed


def _bench_packet_alloc(scale: float) -> Tuple[int, float]:
    """Raw packet construction with per-simulation ids."""
    from repro.sim.engine import Simulator
    from repro.sim.packet import Packet

    total = max(1000, int(100_000 * scale))
    sim = Simulator()
    data = Packet.data
    started = time.perf_counter()
    for i in range(total):
        data(1, "A", "B", seq=i, now=0.0, sim=sim)
    elapsed = time.perf_counter() - started
    return total, elapsed


def _bench_packet_alloc_pooled(scale: float) -> Tuple[int, float]:
    """Packet acquire/release cycle through the free-list pool.

    Skipped (raises ``NotImplementedError``) on revisions without a pool.
    """
    from repro.sim.engine import Simulator
    from repro.sim import packet as packet_mod

    pool_cls = getattr(packet_mod, "PacketPool", None)
    if pool_cls is None:
        raise NotImplementedError("no PacketPool in this revision")
    total = max(1000, int(100_000 * scale))
    sim = Simulator()
    sim.packet_pool = pool_cls()
    pool = sim.packet_pool
    data = packet_mod.Packet.data
    started = time.perf_counter()
    for i in range(total):
        pool.release(data(1, "A", "B", seq=i, now=0.0, sim=sim))
    elapsed = time.perf_counter() - started
    return total, elapsed


def _scenario_cloud(pool: bool):
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.scenarios import WEIGHTS_41, topology1_flows
    from repro.experiments.topospec import TopologySpec

    builder = CloudBuilder(TopologySpec.chain(4), scheme="corelite", seed=0)
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    cloud = builder.build()
    if pool:
        from repro.sim import packet as packet_mod

        pool_cls = getattr(packet_mod, "PacketPool", None)
        if pool_cls is None:
            raise NotImplementedError("no PacketPool in this revision")
        cloud.sim.packet_pool = pool_cls()
    return cloud


def _bench_scenario_chain4(scale: float, pool: bool = False) -> Tuple[int, float]:
    """The paper's §4.1 4-core chain with 20 backlogged flows, end to end.

    The reported unit count is *simulated events executed*: this is the
    headline simulated-events-per-second number for a real workload.
    """
    horizon = max(1.0, 5.0 * scale)
    cloud = _scenario_cloud(pool)
    started = time.perf_counter()
    cloud.run(until=horizon)
    elapsed = time.perf_counter() - started
    return cloud.sim.events_executed, elapsed


def _flow_scaling_cloud(
    scheme: str,
    flows: int,
    *,
    packet_pool: bool = False,
    calendar: bool = True,
    vectorized: bool = False,
    aggregate: int = 1,
    train_batch: int = 1,
):
    """A 2-core chain with ``flows`` backlogged flows crossing it.

    Core capacity scales with the flow count (8 pkt/s per flow) so the
    per-flow fair share stays in the paper's regime — small rates, many
    flows — and the bench measures per-flow overhead, not queue dynamics
    at one particular load.  Weights cycle 1..4 like the §4.1 scenarios.
    ``packet_pool``/``calendar`` feed the replay tests, which pin the
    same cloud byte-identical with each optimization toggled off.

    ``vectorized`` opts corelite into the batched marker/feedback
    transport (inert for csfq); ``aggregate`` folds every ``aggregate``
    member flows into one bucket (``flows`` must divide evenly), keeping
    the same total weight profile: bucket ``b`` carries the weight class
    ``1 + (b % 4)`` for all of its members.  ``train_batch`` opts the
    shapers into the packet-train datapath (statistically pinned, not
    byte-identical — see ARCHITECTURE's "Train datapath").
    """
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.topospec import FlowPathSpec, TopologySpec

    if aggregate < 1 or flows % aggregate:
        raise ConfigurationError(
            f"aggregate ({aggregate}) must divide the flow count ({flows})"
        )
    spec = TopologySpec.chain(
        2, capacity_pps=8.0 * flows, name=f"flow-scaling-{flows}"
    )
    builder = CloudBuilder(
        spec,
        scheme=scheme,
        seed=0,
        packet_pool=packet_pool,
        calendar=calendar,
        vectorized=vectorized,
        train_batch=train_batch,
    )
    for fid in range(1, flows // aggregate + 1):
        builder.add_flow(
            FlowPathSpec(
                fid,
                weight=1.0 + (fid % 4),
                ingress_core="C1",
                egress_core="C2",
                aggregate=aggregate,
            )
        )
    return builder.build()


def _bench_flow_scaling(
    scale: float,
    scheme: str = "corelite",
    flows: int = 512,
    vectorized: bool = False,
    aggregate: int = 1,
    train_batch: int = 1,
) -> Tuple[int, float]:
    """End-to-end pkts/s with a dense flow population (the PR 5 target).

    Build and route computation are excluded from the timing: the unit is
    *delivered data packets* during ``cloud.run``, which is what the
    flow-scale hot-path work (timer tier, slot tables) actually changes.
    Aggregated variants count the same unit — packets that actually
    crossed the simulated network — never member-multiplied totals.

    The horizon ignores ``scale`` on purpose: the first ~2 simulated
    seconds are startup transient (senders ramping, labels converging)
    with almost no deliveries, so a shrunken quick-mode horizon would
    measure fixed overhead instead of throughput — and would never be
    comparable to a full-mode baseline report.
    """
    del scale  # see docstring: short horizons sit inside the transient
    horizon = 8.0
    cloud = _flow_scaling_cloud(
        scheme,
        flows,
        vectorized=vectorized,
        aggregate=aggregate,
        train_batch=train_batch,
    )
    started = time.perf_counter()
    result = cloud.run(until=horizon, sample_interval=1.0)
    elapsed = time.perf_counter() - started
    delivered = sum(record.delivered for record in result.flows.values())
    if delivered <= 0:
        raise ConfigurationError(
            f"flow_scaling bench ({scheme}, {flows} flows) delivered nothing"
        )
    return delivered, elapsed


def _pdes_scaling_builder(flows: int, partitions: int, train_batch: int = 1):
    """An 8-core chain workload built to partition evenly.

    Four two-core groups each carry a quarter of the local flows
    (``C1->C2``, ``C3->C4``, ``C5->C6``, ``C7->C8``), plus ``flows/16``
    cross flows spanning ``C1->C8`` so every cut carries real traffic and
    cross-partition feedback.  The automatic partitioner splits the chain
    into equal halves (or the four pairs) with all cut links at the
    chain's uniform propagation delay, so the conservative window equals
    one link delay and per-partition load is balanced — the configuration
    the parallel speedup target is measured in.
    """
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.topospec import FlowPathSpec, TopologySpec

    if flows % 16:
        raise ConfigurationError(
            f"pdes scaling bench needs a multiple of 16 flows, got {flows}"
        )
    spec = TopologySpec.chain(
        8, capacity_pps=8.0 * (flows // 4), name=f"pdes-scaling-{flows}"
    )
    builder = CloudBuilder(
        spec, scheme="corelite", seed=0, partitions=partitions,
        train_batch=train_batch,
    )
    cross = flows // 16
    fid = 0
    for index in range(flows - cross):
        fid += 1
        group = index % 4
        builder.add_flow(
            FlowPathSpec(
                fid,
                weight=1.0 + (fid % 4),
                ingress_core=f"C{2 * group + 1}",
                egress_core=f"C{2 * group + 2}",
            )
        )
    for _ in range(cross):
        fid += 1
        builder.add_flow(
            FlowPathSpec(
                fid, weight=1.0 + (fid % 4), ingress_core="C1", egress_core="C8"
            )
        )
    return builder


def _bench_flow_scaling_pdes(
    scale: float,
    flows: int = 1024,
    partitions: int = 1,
    train_batch: int = 1,
) -> Tuple[int, float]:
    """The flow_scaling family's parallel rung: same workload, N workers.

    ``partitions=1`` is the serial baseline over the identical 8-core
    workload; ``partitions>1`` runs it as a conservative-window PDES
    (adaptive-lookahead barriers) in spawned worker processes.
    ``train_batch>1`` drives the packet-train datapath over
    the cut links and asserts the weighted fairness of the result, so
    the rung doubles as a trains-over-cuts correctness smoke.  Timing
    covers scheduling, the window barrier loop and the result merge —
    worker spawn and topology build are excluded, matching the serial
    rungs (whose build is excluded too).  The unit stays *delivered data
    packets*, and the horizon is fixed for the same reason as
    :func:`_bench_flow_scaling`.
    """
    del scale  # fixed horizon; see _bench_flow_scaling
    horizon = 16.0
    builder = _pdes_scaling_builder(flows, partitions, train_batch=train_batch)
    if partitions == 1:
        cloud = builder.build()
        started = time.perf_counter()
        result = cloud.run(until=horizon, sample_interval=1.0)
        elapsed = time.perf_counter() - started
    else:
        parallel = builder.build_parallel()
        session = parallel.start()
        try:
            started = time.perf_counter()
            result = parallel.execute(session, horizon, sample_interval=1.0)
            elapsed = time.perf_counter() - started
        finally:
            session.close()
    delivered = sum(record.delivered for record in result.flows.values())
    if delivered <= 0:
        raise ConfigurationError(
            f"pdes flow_scaling bench ({flows} flows, {partitions} "
            "partitions) delivered nothing"
        )
    if train_batch > 1:
        # Calibration: this workload's *serial, train=1* weighted Jain
        # over (8, 16) is 0.845 — each flow lands ~90 packets in the
        # window, so delivery quantization alone caps the index well
        # below the long-horizon scenarios' 0.9+.  Measured train=8 is
        # 0.841 serial and partitioned alike (byte-identical), i.e.
        # within PR 9's 1%-ratio envelope; 0.8 is the regression floor
        # that still catches trains corrupting member accounting
        # (which craters the index) without failing the workload's own
        # baseline.
        fairness = result.fairness_at((horizon / 2.0, horizon))
        if fairness < 0.8:
            raise ConfigurationError(
                f"pdes train rung ({flows} flows, {partitions} partitions, "
                f"train={train_batch}) broke weighted fairness: Jain "
                f"{fairness:.3f} < 0.8"
            )
    return delivered, elapsed


#: name -> (bench callable taking a size scale, work unit name).
BENCHES: Dict[str, Tuple[Callable[[float], Tuple[int, float]], str]] = {
    "event_loop": (_bench_event_loop, "events"),
    "event_loop_cancellable": (_bench_event_loop_cancellable, "events"),
    "link_forwarding": (_bench_link_forwarding, "packets"),
    "periodic_ticks": (_bench_periodic_ticks, "events"),
    "packet_alloc": (_bench_packet_alloc, "packets"),
    "packet_alloc_pooled": (_bench_packet_alloc_pooled, "packets"),
    "scenario_chain4": (_bench_scenario_chain4, "events"),
}

#: Flow-population points for the flow_scaling bench family.  512 is the
#: PR 5 acceptance point; 64/256/1024 trace the scaling curve for both
#: schemes under comparison; 4096 extends the scalar curve to where
#: object-per-flow overhead is undeniable (its cloud *build* alone takes
#: minutes, hence the repeat cap below).
FLOW_SCALING_POINTS: Tuple[Tuple[str, int], ...] = (
    ("corelite", 64),
    ("corelite", 256),
    ("corelite", 512),
    ("corelite", 1024),
    ("corelite", 4096),
    ("csfq", 64),
    ("csfq", 256),
    ("csfq", 1024),
    ("csfq", 4096),
)

#: Train batch the corelite ``_vec``/large rungs run with.  K=8 keeps
#: the coalescing burstiness small enough that delivered counts stay
#: within ~5% of the scalar datapath at the 4096 point while the
#: packets-per-second rate clears the PR 9 acceptance targets severalfold.
#: CSFQ rungs stay scalar: a CSFQ core splits every train at admission
#: (the drop coin and relabel are per-packet end to end), so trains buy
#: little there while shifting the drop statistics at bench loads.
TRAIN_RUNG_BATCH = 8

#: Batched-control + aggregated variants: (scheme, flows, aggregate,
#: train).  The ``_vec`` rungs carry the same member-flow population as
#: their scalar namesakes, folded into ``flows / aggregate`` buckets with
#: ``vectorized=True`` (batched corelite control plane; inert for csfq),
#: the corelite rungs additionally riding the PR 9 train datapath.
FLOW_SCALING_VEC_POINTS: Tuple[Tuple[str, int, int, int], ...] = (
    ("corelite", 1024, 256, TRAIN_RUNG_BATCH),
    ("corelite", 4096, 256, TRAIN_RUNG_BATCH),
    ("csfq", 1024, 256, 1),
    ("csfq", 4096, 256, 1),
)

#: 16384-member rungs are batched + aggregated *by construction* (no
#: ``_vec`` suffix): building 32k+ per-flow edge objects and their routes
#: is infeasible at bench timescales, which is precisely the regime the
#: aggregated mode exists for.
FLOW_SCALING_LARGE_POINTS: Tuple[Tuple[str, int, int, int], ...] = (
    ("corelite", 16384, 256, TRAIN_RUNG_BATCH),
    ("csfq", 16384, 256, 1),
)

# Registration order is suite run order, and it matters: the scalar
# 4096 clouds leave the process holding gigabytes of allocator arenas,
# which measurably depresses every bench that runs after them.  The
# small scalar rungs and the ``_vec`` rungs therefore run first, the
# 4096 scalar rungs after, and the 16384 clouds (the biggest) last.
for _scheme, _flows in FLOW_SCALING_POINTS:
    if _flows < 4096:
        BENCHES[f"flow_scaling_{_scheme}_{_flows}"] = (
            functools.partial(_bench_flow_scaling, scheme=_scheme, flows=_flows),
            "packets",
        )
for _scheme, _flows, _agg, _train in FLOW_SCALING_VEC_POINTS:
    BENCHES[f"flow_scaling_{_scheme}_{_flows}_vec"] = (
        functools.partial(
            _bench_flow_scaling,
            scheme=_scheme,
            flows=_flows,
            vectorized=True,
            aggregate=_agg,
            train_batch=_train,
        ),
        "packets",
    )
#: Conservative-PDES rungs: (flows, partitions).  ``partitions=1`` is
#: the serial baseline on the identical 8-core workload; the w2/w4 rungs
#: are the 2- and 4-worker configurations the >=1.7x speedup acceptance
#: is measured against.  Registered before the scalar 4096 rungs so the
#: spawned workers never inherit those arenas in their parent snapshot.
FLOW_SCALING_PDES_POINTS: Tuple[Tuple[int, int], ...] = (
    (1024, 1),
    (1024, 2),
    (1024, 4),
)

# The parallel rungs keep the ``_adaptive`` suffix they were committed
# under (BENCH_pr10 onward), so reports stay diffable rung-for-rung.
for _flows, _parts in FLOW_SCALING_PDES_POINTS:
    _suffix = "serial" if _parts == 1 else f"w{_parts}_adaptive"
    BENCHES[f"flow_scaling_corelite_{_flows}_pdes_{_suffix}"] = (
        functools.partial(
            _bench_flow_scaling_pdes, flows=_flows, partitions=_parts
        ),
        "packets",
    )
del _flows, _parts, _suffix

#: Trains over cut links: the w2 rung with the PR-9 coalesced datapath,
#: asserting the weighted fairness pin on its own result.
BENCHES["flow_scaling_corelite_1024_pdes_w2_adaptive_train8"] = (
    functools.partial(
        _bench_flow_scaling_pdes,
        flows=1024,
        partitions=2,
        train_batch=8,
    ),
    "packets",
)

for _scheme, _flows in FLOW_SCALING_POINTS:
    if _flows >= 4096:
        BENCHES[f"flow_scaling_{_scheme}_{_flows}"] = (
            functools.partial(_bench_flow_scaling, scheme=_scheme, flows=_flows),
            "packets",
        )
for _scheme, _flows, _agg, _train in FLOW_SCALING_LARGE_POINTS:
    BENCHES[f"flow_scaling_{_scheme}_{_flows}"] = (
        functools.partial(
            _bench_flow_scaling,
            scheme=_scheme,
            flows=_flows,
            vectorized=True,
            aggregate=_agg,
            train_batch=_train,
        ),
        "packets",
    )
del _scheme, _flows, _agg, _train

#: Per-bench repeat ceilings, applied by :func:`run_suite` on top of its
#: global repeat count.  The scalar 4096 rungs spend minutes *building*
#: their clouds (measured time excludes the build, but the wall clock
#: does not), and the 16384 rungs move ~10x the packets of the 1024
#: ones; without caps the full suite would take hours.
BENCH_REPEAT_CAPS: Dict[str, int] = {
    "flow_scaling_corelite_4096": 2,
    "flow_scaling_csfq_4096": 2,
    "flow_scaling_corelite_16384": 2,
    "flow_scaling_csfq_16384": 2,
    "flow_scaling_corelite_1024_pdes_serial": 2,
    "flow_scaling_corelite_1024_pdes_w2_adaptive": 2,
    "flow_scaling_corelite_1024_pdes_w4_adaptive": 2,
    "flow_scaling_corelite_1024_pdes_w2_adaptive_train8": 2,
}

#: Rungs matching this prefix feed the CI flow-scale regression gate, so
#: a committed report must never carry a single-repeat (variance-free)
#: median for them: :func:`run_suite` floors their repeat count at
#: :data:`MIN_GATED_REPEATS` regardless of caps or ``--repeats``.
GATED_BENCH_PREFIX = "flow_scaling_"
MIN_GATED_REPEATS = 2

for _name, _cap in BENCH_REPEAT_CAPS.items():
    if _name.startswith(GATED_BENCH_PREFIX) and _cap < MIN_GATED_REPEATS:
        raise ConfigurationError(
            f"BENCH_REPEAT_CAPS[{_name!r}] = {_cap}: gated rungs need "
            f">= {MIN_GATED_REPEATS} repeats"
        )
del _name, _cap

#: Benches too heavy for quick (CI smoke) mode.  ``flow_scaling_corelite_16384``
#: is deliberately *not* here: CI runs it as the many-flow smoke rung.
QUICK_SKIP_BENCHES = frozenset(
    {
        "flow_scaling_corelite_4096",
        "flow_scaling_csfq_4096",
        "flow_scaling_csfq_16384",
        # The w4 rung stays as the quick-mode PDES smoke; the serial
        # baseline, the w2 rung and the train variant only matter for
        # full speedup reports.
        "flow_scaling_corelite_1024_pdes_serial",
        "flow_scaling_corelite_1024_pdes_w2_adaptive",
        "flow_scaling_corelite_1024_pdes_w2_adaptive_train8",
    }
)


# ---------------------------------------------------------------------------
# results and reports
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    """Timings of one bench across its repeats."""

    name: str
    unit: str
    units: int
    median_s: float
    best_s: float
    repeats: int
    timings_s: List[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        """Work units per second at the median timing."""
        if self.median_s <= 0.0:
            return math.inf
        return self.units / self.median_s

    def as_dict(self) -> Dict:
        return {
            "unit": self.unit,
            "units": self.units,
            "median_s": self.median_s,
            "best_s": self.best_s,
            "repeats": self.repeats,
            "timings_s": list(self.timings_s),
            "units_per_sec": self.rate,
        }


def _affinity_cpus() -> Optional[int]:
    """CPUs this process may actually run on, where the OS can say.

    ``os.cpu_count()`` reports the box; cgroup/taskset restrictions (CI
    runners, containers) show up only in the scheduling affinity mask.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:  # pragma: no cover - non-Linux
        return None
    try:
        return len(getter(0))
    except OSError:  # pragma: no cover - exotic kernels
        return None


@dataclass
class BenchReport:
    """One suite run: per-bench results plus process-level totals."""

    label: str
    quick: bool
    benches: Dict[str, BenchResult]
    wall_seconds: float
    peak_rss_kb: int
    events_per_sec: float  # the scenario bench's simulated-events rate
    skipped: List[str] = field(default_factory=list)
    #: Core counts at measurement time: parallel (pdes) rungs are only
    #: comparable between reports taken on like-cored boxes, so the
    #: report records both the box and the affinity-restricted view.
    cpu_count: Optional[int] = field(default_factory=os.cpu_count)
    cpu_affinity: Optional[int] = field(default_factory=_affinity_cpus)
    #: Optional cProfile snapshot (see :func:`profile_summary`) so a
    #: committed report doubles as a profiling trajectory point.
    profile: Optional[Dict] = None

    def as_dict(self) -> Dict:
        payload = {
            "schema": SCHEMA,
            "label": self.label,
            "quick": self.quick,
            "version": __version__,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": self.cpu_count,
            "cpu_affinity": self.cpu_affinity,
            "wall_seconds": self.wall_seconds,
            "peak_rss_kb": self.peak_rss_kb,
            "events_per_sec": self.events_per_sec,
            "skipped": list(self.skipped),
            "benches": {name: r.as_dict() for name, r in self.benches.items()},
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def profile_summary(profile, top: int = 20) -> Dict:
    """The top-``top`` cumulative-time entries of a cProfile run, as a
    JSON-ready payload for embedding in a :class:`BenchReport`.

    Committed ``BENCH_<label>.json`` files carrying this section double
    as profiling snapshots: the perf trajectory then records not just
    *how fast* each revision was but *where the time went*.
    """
    import pstats

    stats = pstats.Stats(profile)
    entries = []
    ranked = sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )
    for func, (cc, nc, tt, ct, _callers) in ranked[:top]:
        filename, line, name = func
        entries.append(
            {
                "function": name,
                "location": f"{filename}:{line}",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return {"sort": "cumulative", "top": top, "entries": entries}


def _peak_rss_kb() -> int:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        usage //= 1024
    return int(usage)


def run_bench(
    name: str, scale: float = 1.0, repeats: int = 3, **kwargs
) -> BenchResult:
    """Run one named bench ``repeats`` times; report the median timing."""
    try:
        fn, unit = BENCHES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench {name!r}; pick from {sorted(BENCHES)}"
        ) from None
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    timings: List[float] = []
    units = 0
    for _ in range(repeats):
        units, elapsed = fn(scale, **kwargs) if kwargs else fn(scale)
        timings.append(elapsed)
    ordered = sorted(timings)
    median = ordered[len(ordered) // 2]
    return BenchResult(
        name=name,
        unit=unit,
        units=units,
        median_s=median,
        best_s=ordered[0],
        repeats=repeats,
        timings_s=timings,  # chronological, so warm-up drift stays visible
    )


def run_suite(
    label: str,
    quick: bool = False,
    repeats: Optional[int] = None,
    pool: bool = False,
    train_batch: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the full suite and return its report.

    ``quick`` shrinks every bench (CI smoke) except the ``flow_scaling``
    family, whose horizon is fixed so quick reports stay comparable to
    full-mode baselines; ``pool`` runs the scenario
    bench with the packet free-list pool enabled so its effect lands in
    the trajectory.  ``train_batch`` overrides the per-rung train batch
    of every serial ``flow_scaling`` rung (``1`` forces the scalar
    datapath — how the interleaved ``_base`` half of a before/after pair
    is produced on one build).  Benches that probe for features the
    current revision lacks are recorded under ``skipped`` instead of
    failing, which is what lets one suite binary produce comparable
    before/after reports.
    """
    scale = 0.2 if quick else 1.0
    if repeats is None:
        repeats = 3 if quick else 5
    if train_batch is not None and train_batch < 1:
        raise ConfigurationError(
            f"train_batch override must be >= 1, got {train_batch}"
        )

    def run_or_skip(name: str) -> Optional[BenchResult]:
        kwargs = {"pool": pool} if name == "scenario_chain4" and pool else {}
        if (
            train_batch is not None
            and name.startswith(GATED_BENCH_PREFIX)
            and "_pdes_" not in name
        ):
            kwargs["train_batch"] = train_batch
        reps = min(repeats, BENCH_REPEAT_CAPS.get(name, repeats))
        if name.startswith(GATED_BENCH_PREFIX):
            # CI-gated rungs never land with a variance-free median.
            reps = max(reps, MIN_GATED_REPEATS)
        try:
            return run_bench(name, scale=scale, repeats=reps, **kwargs)
        except NotImplementedError:
            return None

    results: Dict[str, BenchResult] = {}
    skipped: List[str] = []
    started = time.perf_counter()
    for name in BENCHES:
        if quick and name in QUICK_SKIP_BENCHES:
            skipped.append(name)
            if log is not None:
                log(f"  {name}: skipped (too heavy for quick mode)")
            continue
        result = run_or_skip(name)
        if result is None:
            skipped.append(name)
            if log is not None:
                log(f"  {name}: skipped (not supported by this revision)")
            continue
        results[name] = result
        if log is not None:
            log(
                f"  {name}: {result.rate:,.0f} {result.unit}/s "
                f"(median {result.median_s * 1e3:.1f} ms over "
                f"{result.repeats} runs)"
            )
    wall = time.perf_counter() - started
    scenario = results.get("scenario_chain4")
    return BenchReport(
        label=label,
        quick=quick,
        benches=results,
        wall_seconds=wall,
        peak_rss_kb=_peak_rss_kb(),
        events_per_sec=scenario.rate if scenario is not None else 0.0,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# diffs and the regression gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRegression:
    """One bench whose throughput moved between two reports."""

    name: str
    unit: str
    baseline_rate: float
    current_rate: float

    @property
    def ratio(self) -> float:
        if self.baseline_rate <= 0.0:
            return math.inf
        return self.current_rate / self.baseline_rate


def load_report(path: str) -> Dict:
    """Load a ``BENCH_*.json`` file, validating the schema version."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported bench schema {payload.get('schema')!r} "
            f"(this build reads schema {SCHEMA})"
        )
    return payload


def diff_reports(
    current: Dict,
    baseline: Dict,
    threshold: float = 0.30,
    warn: Optional[Callable[[str], None]] = None,
) -> Tuple[List[BenchRegression], List[BenchRegression]]:
    """Compare two report payloads bench by bench.

    Returns ``(regressions, improvements)``: a regression is a common
    bench whose units/sec dropped by more than ``threshold`` (a
    fraction); an improvement is any common bench that got faster.
    Benches present on only one side — a rung added or retired by the
    PR under test — are skipped with a ``warn`` callback note rather
    than an error, which is what keeps before/after pairs spanning a
    feature's introduction comparable; the same applies to entries
    whose ``units_per_sec`` is missing or malformed (a hand-edited or
    pre-schema report).
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigurationError(
            f"threshold must be a fraction in (0, 1), got {threshold}"
        )

    def _warn(message: str) -> None:
        if warn is not None:
            warn(message)

    regressions: List[BenchRegression] = []
    improvements: List[BenchRegression] = []
    cur_benches = current.get("benches", {})
    base_benches = baseline.get("benches", {})
    if any("_pdes_" in name for name in set(cur_benches) & set(base_benches)):
        cur_cpus = current.get("cpu_count")
        base_cpus = baseline.get("cpu_count")
        if cur_cpus != base_cpus:
            _warn(
                f"pdes rungs compared across different core counts "
                f"(current {cur_cpus}, baseline {base_cpus}): parallel "
                f"speedups are not comparable"
            )
    for name in sorted(set(cur_benches) ^ set(base_benches)):
        side = "current" if name in cur_benches else "baseline"
        _warn(f"{name}: only in the {side} report; skipped")
    for name in sorted(set(cur_benches) & set(base_benches)):
        cur = cur_benches[name]
        base = base_benches[name]
        try:
            baseline_rate = float(base["units_per_sec"])
            current_rate = float(cur["units_per_sec"])
        except (KeyError, TypeError, ValueError):
            _warn(f"{name}: units_per_sec missing or malformed; skipped")
            continue
        entry = BenchRegression(
            name=name,
            unit=cur.get("unit", "units"),
            baseline_rate=baseline_rate,
            current_rate=current_rate,
        )
        if entry.ratio < 1.0 - threshold:
            regressions.append(entry)
        elif entry.ratio > 1.0:
            improvements.append(entry)
    return regressions, improvements


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------


def format_report_table(report: BenchReport) -> str:
    """Human-readable per-bench table for the CLI."""
    rows = [f"{'bench':<24} {'units/sec':>14} {'median':>10} {'unit':>8}"]
    rows.append("-" * len(rows[0]))
    rows.extend(
        f"{name:<24} {result.rate:>14,.0f} "
        f"{result.median_s * 1e3:>8.1f}ms {result.unit:>8}"
        for name, result in report.benches.items()
    )
    rows.append(
        f"total wall {report.wall_seconds:.1f} s, "
        f"peak RSS {report.peak_rss_kb / 1024:.1f} MB, "
        f"scenario {report.events_per_sec:,.0f} events/s"
    )
    return "\n".join(rows)


def format_diff_table(
    regressions: List[BenchRegression], improvements: List[BenchRegression]
) -> str:
    lines = [
        f"  + {entry.name}: {entry.baseline_rate:,.0f} -> "
        f"{entry.current_rate:,.0f} {entry.unit}/s "
        f"({(entry.ratio - 1.0) * 100:+.1f}%)"
        for entry in improvements
    ]
    lines.extend(
        f"  ! {entry.name}: {entry.baseline_rate:,.0f} -> "
        f"{entry.current_rate:,.0f} {entry.unit}/s "
        f"({(entry.ratio - 1.0) * 100:+.1f}%)  REGRESSION"
        for entry in regressions
    )
    if not lines:
        lines.append("  (no common benches moved)")
    return "\n".join(lines)
