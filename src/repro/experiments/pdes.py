"""Conservative parallel discrete-event execution of one cloud.

A :class:`ParallelCloud` runs a :class:`~repro.experiments.topospec.TopologySpec`
as N partition-local :class:`~repro.sim.engine.Simulator` instances
advancing under the conservative barrier protocol.  The static window is
the minimum propagation delay over the *cut links* (see
:class:`~repro.experiments.partition.PartitionPlan`): any event generated
inside a window and addressed to another partition is in flight for at
least one window, so no partition can ever receive an event from its past.

Adaptive lookahead sharpens that bound per barrier.  The
coordinator holds a *channel-delay matrix*: for every ordered partition
pair, the minimum delay over all channels partition ``i`` can message
``j`` through — directed cut links actually used by some flow's route
(data and markers), plus the scheme's control channels (Corelite rate
feedback from on-path cores to remote ingress edges, CSFQ/FIFO loss
notifications from egress to ingress edges), each at its shadow-path
delay, exactly the delay ``send_control`` charges.  A Floyd–Warshall
closure (:func:`~repro.experiments.partition.lookahead_closure`) extends
the matrix to multi-hop influence paths.  Every worker returns a
*lookahead promise* with its outbox — the timestamp of its earliest
pending event — and the coordinator advances partition ``j`` to::

    t_next[j] = min(until, min_i(eff[i] + closure[i][j]))

where ``eff[i]`` is the earliest future activity of partition ``i`` (its
promise, or an undelivered message bound for it, whichever is sooner).
Nothing can reach ``j`` before ``t_next[j]``, so the window is safe; and
because every channel crosses at least one cut link, ``t_next`` is never
tighter than the static window — adaptive windows are a strict
improvement.  Byte-identity with the serial run survives because window
boundaries only chunk execution: the global ``(time, insertion)`` event
order is unchanged as long as every message is injected before its
destination passes its delivery time, which the bound guarantees.

Barrier overhead is attacked three more ways:

* One fused message per barrier: the window command carries the inbox
  batches and (on first contact) the schedule parameters; the reply
  carries the outbox and the lookahead promise.
* Idle partitions skip the round-trip entirely: when a partition has an
  empty inbox and a cached promise beyond ``t_next``, the coordinator
  bumps its logical clock without touching the worker.
* Boundary traffic is array-batched: a window's packets serialize as one
  numeric ``array('d')`` column plus one object column per destination
  partition instead of per-packet tuples, so a batch pickles as a few
  buffers.  :class:`~repro.sim.packet.PacketTrain` carriers cross
  plain-FIFO cut links whole — the wire format round-trips the train
  fields (count, markers, member labels).

Execution modes differ in stepping discipline, not semantics: ``inline``
advances one partition at a time (Gauss–Seidel — each step sees every
earlier step's fresh promise, which compounds lookahead fastest),
``process`` advances all due partitions concurrently per round (Jacobi —
that concurrency is the parallel speedup).

Equivalence with the serial build is by construction, not by sampling:
every RNG stream is name-derived and consumed by exactly one component
in exactly one partition, routing and control delays come from the
shadow graph (identical floats to the serial topology queries), and
boundary transmission uses the same queued-path timestamps as a local
link.  The chain pins in ``tests/test_pdes.py`` assert bit-equal
rate/throughput series against the serial run.

v1 restrictions (each raises :class:`~repro.errors.ConfigurationError`):
topology dynamics, TCP transport, lossy control planes and custom queue
factories in process mode are not supported yet.
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, RoutingError, SimulationError, TopologyError
from repro.experiments.builder import SCHEME_STRATEGIES, Cloud, check_run_arguments
from repro.experiments.partition import (
    PartitionPlan,
    ShadowGraph,
    channel_delay_matrix,
    lookahead_closure,
)
from repro.experiments.runner import FlowRecord, RunResult
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.control import ControlPlane
from repro.sim.monitor import Series
from repro.sim.packet import Packet, PacketKind, PacketTrain

__all__ = ["ParallelCloud"]


# -- batched wire format -------------------------------------------------------
#
# A window's boundary traffic toward one destination partition is one
# batch: a numeric column (array('d'), machine-width pickling) holding
# the per-entry scalars, an object column holding the strings, and a
# sparse list of train extras.  Packet ids are never shipped —
# reconstruction draws fresh pids from the *destination* simulator (pids
# are allocation bookkeeping, never behavior).

#: Numeric column stride: deliver, tag (0 pkt / 1 feedback / 2 loss),
#: emission seq, packet kind, size, packet seq, label, created_at, ecn.
_NUMS = 9
#: Object column stride: dst node/edge name, flow_id, src, dst,
#: origin_edge, feedback_from.
_OBJS = 6

class _OutBatch:
    """Accumulates one window's messages toward one destination partition."""

    __slots__ = ("n", "min_deliver", "nums", "objs", "trains")

    def __init__(self) -> None:
        self.n = 0
        self.min_deliver = math.inf
        self.nums = array("d")
        self.objs: List = []
        self.trains: List[Tuple] = []

    def add(
        self, tag: float, deliver: float, seq: int, dst_name: str, packet: Packet
    ) -> None:
        row = self.n
        self.n = row + 1
        if deliver < self.min_deliver:
            self.min_deliver = deliver
        self.nums.extend(
            (
                deliver,
                tag,
                float(seq),
                float(int(packet.kind)),
                packet.size,
                float(packet.seq),
                float(packet.label),
                packet.created_at,
                1.0 if packet.ecn else 0.0,
            )
        )
        self.objs.extend(
            (
                dst_name,
                packet.flow_id,
                packet.src,
                packet.dst,
                packet.origin_edge,
                packet.feedback_from,
            )
        )
        if type(packet) is not Packet:
            self.trains.append((row, packet.count, packet.marker_count))

    def payload(self) -> Tuple:
        return (self.n, self.min_deliver, self.nums, self.objs, self.trains)


class _ShadowControlPlane(ControlPlane):
    """Control plane resolving path delays over the global shadow graph.

    A partition's local topology cannot answer delay queries whose path
    leaves the partition; the shadow graph answers every query — with
    the same floats the serial ``Topology.path_delay`` produces, because
    both sum the identical per-link delays along the identical shortest
    path.  Local deliveries stay in-simulator exactly like the serial
    control plane; remote ones never reach :meth:`send` (the strategy
    closures hand them to the partition runtime instead).
    """

    def __init__(self, sim, topology, shadow: ShadowGraph) -> None:
        super().__init__(sim, topology)
        self._shadow = shadow

    def delay(self, src: str, dst: str) -> float:
        key = (src, dst)
        delay = self._delay_cache.get(key)
        if delay is None:
            delay = self._shadow.path_delay(src, dst)
            self._delay_cache[key] = delay
        return delay


class _PartitionWorker:
    """One partition: its sub-cloud, shadow graph, outboxes and metrics.

    Constructed from a picklable payload dict so the process mode can
    ship it to a spawned worker unchanged.  Implements the partition
    protocol the :class:`~repro.experiments.builder.Cloud` build hooks
    call into: ``owns`` / ``boundary_emit`` / ``make_control_plane`` /
    ``send_control`` / ``finalize_cloud``.  Outgoing messages are packed
    into per-destination-partition :class:`_OutBatch` columns at emit
    time.
    """

    def __init__(self, payload: Dict) -> None:
        self.spec: TopologySpec = payload["spec"]
        self.scheme: str = payload["scheme"]
        self.flows: Tuple[FlowPathSpec, ...] = tuple(payload["flows"])
        self.seed: int = payload["seed"]
        self.config = payload["config"]
        self.plan: PartitionPlan = payload["plan"]
        self.index: int = payload["index"]
        self.vectorized: bool = payload["vectorized"]
        self.train_batch: int = payload.get("train_batch", 1)
        self.queue_factory = payload["queue_factory"]
        #: Destination name -> owning partition (coordinator-computed),
        #: so outboxes are pre-split by destination on the worker side.
        self.partition_of: Dict[str, int] = payload["partition_of"]
        self._local = frozenset(self.plan.cores_of(self.index))
        self.cloud: Optional[Cloud] = None
        self.shadow: Optional[ShadowGraph] = None
        self._out: Dict[int, _OutBatch] = {}
        self._emit_seq = 0
        self._records: Dict[int, Dict] = {}
        self._queues: List[Tuple] = []
        self._sampler = None

    # -- construction ----------------------------------------------------

    def prepare(self) -> None:
        """Build the shadow graph, then the partition's sub-cloud."""
        self.shadow = ShadowGraph(self.spec, self.flows)
        strategy = SCHEME_STRATEGIES[self.scheme](self.config)
        self.cloud = Cloud(
            self.spec,
            strategy,
            seed=self.seed,
            queue_factory=self.queue_factory,
            vectorized=self.vectorized,
            train_batch=self.train_batch,
            partition=self,
        )
        self.cloud.add_flows(self.flows)
        self.cloud.finalize()

    # -- partition protocol (called by the Cloud build) -------------------

    def owns(self, core: str) -> bool:
        return core in self._local

    def _batch_for(self, dst_partition: int) -> _OutBatch:
        batch = self._out.get(dst_partition)
        if batch is None:
            batch = _OutBatch()
            self._out[dst_partition] = batch
        return batch

    def boundary_emit(self, dst_name: str) -> Callable[[float, Packet], None]:
        dst_partition = self.partition_of[dst_name]

        def emit(deliver_time: float, packet: Packet) -> None:
            self._emit_seq += 1
            self._batch_for(dst_partition).add(
                0.0, deliver_time, self._emit_seq, dst_name, packet
            )

        return emit

    def make_control_plane(self, cloud: Cloud) -> ControlPlane:
        return _ShadowControlPlane(cloud.sim, cloud.topology, self.shadow)

    def send_control(self, src: str, dst_edge: str, kind: str, packet: Packet) -> None:
        """Queue a control packet whose destination edge is remote.

        The delivery time is now plus the reverse-path propagation delay
        over the shadow graph — the exact delay the serial control plane
        charges.  The path crosses at least one cut link, so the delay is
        at least one window and the message lands beyond the barrier.
        """
        deliver = self.cloud.sim.now + self.shadow.path_delay(src, dst_edge)
        self._emit_seq += 1
        self._batch_for(self.partition_of[dst_edge]).add(
            1.0 if kind == "feedback" else 2.0,
            deliver,
            self._emit_seq,
            dst_edge,
            packet,
        )

    def finalize_cloud(self, cloud: Cloud) -> None:
        """Routes, scheme enablement and admission over the shadow graph.

        Mirrors the serial :meth:`Cloud.finalize` step for step, but
        every path query runs against the global shadow graph: all
        partitions therefore install the same forwarding decisions, and
        admission accepts or rejects identically everywhere.
        """
        shadow = self.shadow
        shadow.require_routable(self.flows, self.spec.name)
        destinations: List[str] = []
        for spec in self.flows:
            destinations.append(spec.ingress_edge)
            destinations.append(spec.egress_edge)
        try:
            # A local router's first hop is always a local link object
            # (an intra-partition link or the local half of a cut link),
            # so the global tables resolve in the local topology.
            cloud.topology.install_routes_over(shadow.paths, destinations, strict=True)
        except RoutingError as exc:
            raise TopologyError(
                f"topology {self.spec.name!r} is disconnected: {exc}"
            ) from exc
        cloud.strategy.enable_core_links(cloud)
        self._admit_contracts()

    def _admit_contracts(self) -> None:
        contracted = [spec for spec in self.flows if spec.min_rate > 0]
        if not contracted:
            return
        from repro.core.admission import AdmissionController

        admission = AdmissionController(dict(self.shadow.capacities))
        for spec in contracted:
            path = self.shadow.path_link_names(spec.ingress_edge, spec.egress_edge)
            if not admission.request(spec.flow_id, path, spec.network_min_rate):
                raise ConfigurationError(
                    f"flow {spec.flow_id}: contract of {spec.network_min_rate} "
                    f"pkt/s rejected by admission control (insufficient "
                    f"headroom along {path})"
                )

    # -- window execution -------------------------------------------------

    def schedule(
        self, until: float, sample_interval: float, record_queues: bool = False
    ) -> None:
        """Schedule local flow traffic and start the per-flow samplers.

        A flow's generators run where its ingress lives; its rate series
        is sampled there, its throughput/cumulative series at the egress
        partition.  Sampling instants match the serial run (every
        ``sample_interval`` from time 0), so merged series line up
        sample-for-sample with their serial counterparts.  With
        ``record_queues``, every local core-to-core link — including the
        local half of a cut link, whose queue lives entirely on this
        side — is sampled at the same instants, exactly as the serial
        :meth:`Cloud.run` samples it.
        """
        cloud = self.cloud
        for spec in self.flows:
            fid = spec.flow_id
            ingress_local = self.owns(spec.ingress_core)
            egress_local = self.owns(spec.egress_core)
            if not ingress_local and not egress_local:
                continue
            entry: Dict[str, object] = {"spec": spec}
            if ingress_local:
                cloud._schedule_flow_traffic(fid, spec, until)
                entry["rate"] = Series(f"rate:{fid}")
            if egress_local:
                entry["tput"] = Series(f"tput:{fid}")
                entry["cum"] = Series(f"cum:{fid}")
            self._records[fid] = entry

        if record_queues:
            core_set = set(self.spec.cores)
            for link in cloud.topology.links.values():
                if link.src_name in core_set and link.dst.name in core_set:
                    self._queues.append((link, Series(f"queue:{link.name}")))
        queues = self._queues

        def sample() -> None:
            now = cloud.sim.now
            for fid, entry in self._records.items():
                spec = entry["spec"]
                rate_series = entry.get("rate")
                if rate_series is not None:
                    ingress = cloud.edges[spec.ingress_edge]
                    rate = (
                        ingress.allotted_rate(fid)
                        if ingress.flow_active(fid)
                        else 0.0
                    )
                    rate_series.append(now, rate)
                tput_series = entry.get("tput")
                if tput_series is not None:
                    egress = cloud.edges[spec.egress_edge]
                    tput_series.append(now, egress.take_throughput(fid))
                    entry["cum"].append(now, float(egress.delivered(fid)))
            for link, series in queues:
                series.append(now, link.queue.occupancy)

        self._sampler = cloud.sim.every(sample_interval, sample)

    def inject_batches(self, batches: Sequence[Tuple[int, Tuple]]) -> None:
        """Unpack one window's inbound batches and inject every entry.

        Entries merge across source partitions sorted by ``(deliver
        time, source partition, emission seq)`` — the same deterministic
        order the per-tuple protocol used — before touching the engine,
        so tie-breaking is independent of batching.
        """
        if not batches:
            return
        sim = self.cloud.sim
        entries = []
        for src_index, (n, _min_deliver, nums, objs, trains) in batches:
            extras = dict()
            for extra in trains:
                extras[extra[0]] = extra
            for row in range(n):
                base = row * _NUMS
                entries.append(
                    (
                        (nums[base], src_index, nums[base + 2]),
                        base,
                        row * _OBJS,
                        nums,
                        objs,
                        extras.get(row),
                    )
                )
        entries.sort(key=lambda entry: entry[0])
        nodes = self.cloud.topology.nodes
        edges = self.cloud.edges
        for _key, base, obase, nums, objs, extra in entries:
            deliver = nums[base]
            tag = nums[base + 1]
            flow_id = objs[obase + 1]
            src = objs[obase + 2]
            dst = objs[obase + 3]
            if extra is None:
                packet = Packet(
                    PacketKind(int(nums[base + 3])),
                    flow_id,
                    src,
                    dst,
                    size=nums[base + 4],
                    seq=int(nums[base + 5]),
                    origin_edge=objs[obase + 4],
                    label=nums[base + 6],
                    created_at=nums[base + 7],
                    sim=sim,
                )
            else:
                _row, count, marker_count = extra
                if dst == objs[obase]:
                    # The egress edge spaces member delays by the link that
                    # delivers the train; cuts join cores, so that hop is local.
                    raise SimulationError(
                        f"train of flow {flow_id} crossed a cut into its egress edge {dst!r}"
                    )
                packet = PacketTrain(
                    flow_id,
                    src,
                    dst,
                    int(nums[base + 5]),
                    count,
                    created_at=nums[base + 7],
                    label=nums[base + 6],
                    sim=sim,
                )
                packet.size = nums[base + 4]
                packet.origin_edge = objs[obase + 4]
                packet.marker_count = marker_count
            packet.feedback_from = objs[obase + 5]
            packet.ecn = nums[base + 8] != 0.0
            if tag == 0.0:
                node = nodes[objs[obase]]
                sim.inject(deliver, node.receive, packet, None)
            else:
                edge = edges[objs[obase]]
                deliver_fn = (
                    edge.receive_feedback
                    if tag == 1.0
                    else edge.receive_loss_notify
                )
                sim.inject(deliver, self._deliver_control, deliver_fn, packet)

    def _deliver_control(self, deliver: Callable[[Packet], None], packet: Packet) -> None:
        # Injected control packets count as delivered exactly like the
        # serial control plane counts its local deliveries.
        self.cloud.control.delivered += 1
        deliver(packet)

    def run_window(self, until: float) -> None:
        self.cloud.sim.run_window(until)

    def peek(self) -> Optional[float]:
        """Lookahead promise: time of the earliest pending local event
        (``None`` when nothing is pending)."""
        return self.cloud.sim.peek_time()

    def take_out(self) -> Dict[int, Tuple]:
        """This window's outbox, pre-split per destination partition."""
        out = self._out
        self._out = {}
        return {dst: batch.payload() for dst, batch in out.items()}

    def fragment(self) -> Dict:
        """This partition's share of the run result (picklable)."""
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        cloud = self.cloud
        for link in cloud.topology.links.values():
            link.settle()  # as Cloud.run: leave every link current
        flows: Dict[int, Dict] = {}
        for fid, entry in self._records.items():
            spec = entry["spec"]
            out: Dict[str, object] = {}
            rate_series = entry.get("rate")
            if rate_series is not None:
                out["rate"] = (list(rate_series.times), list(rate_series.values))
            tput_series = entry.get("tput")
            if tput_series is not None:
                egress = cloud.edges[spec.egress_edge]
                out["tput"] = (list(tput_series.times), list(tput_series.values))
                cum = entry["cum"]
                out["cum"] = (list(cum.times), list(cum.values))
                out["delivered"] = egress.delivered(fid)
                out["losses"] = egress.losses(fid)
                out["delay"] = egress.delay_stats(fid).summary()
            flows[fid] = out
        return {
            "drops": cloud.topology.total_drops(),
            "policy_drops": cloud.strategy.policy_drops(cloud),
            "events": cloud.sim.events_executed,
            "flows": flows,
            "queues": {
                link.name: (list(series.times), list(series.values))
                for link, series in self._queues
            },
        }


# -- worker hosting -----------------------------------------------------------


class _InlineSession:
    """All partitions in this process — the exact-equivalence harness."""

    def __init__(self, payloads: Sequence[Dict]) -> None:
        self.workers = [_PartitionWorker(payload) for payload in payloads]
        for worker in self.workers:
            worker.prepare()

    def windows(self, requests: Sequence[Tuple]) -> Dict[int, Tuple]:
        results: Dict[int, Tuple] = {}
        for index, t_next, batches, sched in requests:
            worker = self.workers[index]
            if sched is not None:
                worker.schedule(*sched)
            worker.inject_batches(batches)
            worker.run_window(t_next)
            results[index] = (worker.take_out(), worker.peek())
        return results

    def finish(self) -> List[Dict]:
        return [worker.fragment() for worker in self.workers]

    def close(self) -> None:
        return None


def _pdes_worker_main(conn, payload: Dict) -> None:
    """Spawned-process entry point hosting one partition worker.

    Module top-level so the spawn start method can pickle it (same
    constraint as the :mod:`repro.experiments.parallel` pool workers).
    One message per barrier each way: ``("window", (t_next, batches,
    sched))`` in — ``sched`` carries the schedule parameters on first
    contact only — ``("outbox", (out, peek))`` back.  Replies
    ``("error", traceback)`` on any failure; the coordinator re-raises
    with the worker's traceback text.
    """
    try:
        worker = _PartitionWorker(payload)
        worker.prepare()
        conn.send(("ready", None))
        while True:
            tag, body = conn.recv()
            if tag == "window":
                t_next, batches, sched = body
                if sched is not None:
                    worker.schedule(*sched)
                worker.inject_batches(batches)
                worker.run_window(t_next)
                conn.send(("outbox", (worker.take_out(), worker.peek())))
            elif tag == "finish":
                conn.send(("fragment", worker.fragment()))
                return
            else:
                raise SimulationError(f"unknown pdes command {tag!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class _ProcessSession:
    """One spawned process per partition, pipe-connected.

    Window commands are sent to every due worker before any reply is
    read, so partitions execute their windows concurrently — that
    concurrency is the entire speedup.
    """

    def __init__(self, payloads: Sequence[Dict]) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        try:
            for payload in payloads:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_pdes_worker_main,
                    args=(child_conn, payload),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for conn in self._conns:
                self._expect(conn, "ready")
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _expect(conn, tag: str):
        message = conn.recv()
        if message[0] == "error":
            raise SimulationError(
                f"pdes partition worker failed:\n{message[1]}"
            )
        if message[0] != tag:
            raise SimulationError(
                f"pdes protocol error: expected {tag!r}, got {message[0]!r}"
            )
        return message[1]

    def windows(self, requests: Sequence[Tuple]) -> Dict[int, Tuple]:
        for index, t_next, batches, sched in requests:
            self._conns[index].send(("window", (t_next, batches, sched)))
        return {
            request[0]: self._expect(self._conns[request[0]], "outbox")
            for request in requests
        }

    def finish(self) -> List[Dict]:
        for conn in self._conns:
            conn.send(("finish", None))
        return [self._expect(conn, "fragment") for conn in self._conns]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)


class ParallelCloud:
    """Coordinator of one partitioned cloud run.

    Build through :meth:`CloudBuilder.build_parallel
    <repro.experiments.builder.CloudBuilder.build_parallel>` (or
    directly); :meth:`run` produces a :class:`RunResult` with the same
    shape and fields a serial :meth:`Cloud.run` returns.  For benchmark
    timing, :meth:`start` (worker spawn + topology build, untimed setup)
    and :meth:`execute` (scheduling, the window barrier loop and the
    merge) are exposed separately.

    After :meth:`execute`, the barrier-overhead counters describe the
    run: ``barriers`` (worker window round-trips — the quantity adaptive
    lookahead minimizes), ``rounds`` (coordinator scheduling rounds) and
    ``skips`` (idle round-trips elided entirely).
    """

    def __init__(
        self,
        spec: TopologySpec,
        scheme: str,
        flows: Sequence[FlowPathSpec],
        *,
        seed: int = 0,
        config=None,
        partitions: int = 2,
        plan: Optional[PartitionPlan] = None,
        mode: str = "process",
        queue_factory=None,
        vectorized: bool = False,
        train_batch: int = 1,
    ) -> None:
        if scheme not in SCHEME_STRATEGIES:
            raise ConfigurationError(
                f"unknown scheme {scheme!r}; pick one of {sorted(SCHEME_STRATEGIES)}"
            )
        if mode not in ("process", "inline"):
            raise ConfigurationError(
                f"unknown pdes mode {mode!r}; pick 'process' or 'inline'"
            )
        if spec.events:
            raise ConfigurationError(
                "partitioned runs do not support topology dynamics yet "
                "(coordinated cross-partition reroutes are future work)"
            )
        if not flows:
            raise ConfigurationError("no flows added")
        seen_ids = set()
        for flow in flows:
            if flow.flow_id in seen_ids:
                raise ConfigurationError(f"duplicate flow id {flow.flow_id}")
            seen_ids.add(flow.flow_id)
            if flow.transport == "tcp":
                raise ConfigurationError(
                    f"flow {flow.flow_id}: TCP transport is not supported in "
                    "partitioned clouds (host attachment spans partitions)"
                )
        if queue_factory is not None and mode == "process":
            raise ConfigurationError(
                "custom queue factories are not supported in process mode "
                "(the factory callable cannot be shipped to spawned "
                "workers); use pdes_mode='inline'"
            )
        if plan is None:
            plan = spec.partition_plan(partitions)
        else:
            plan.validate_for(spec)
            if plan.num_partitions != partitions:
                raise ConfigurationError(
                    f"partition plan has {plan.num_partitions} partitions "
                    f"but the builder asked for {partitions}"
                )
        self.spec = spec
        self.scheme = scheme
        self.flows = tuple(flows)
        self.seed = seed
        self.config = config
        self.plan = plan
        self.mode = mode
        self.queue_factory = queue_factory
        self.vectorized = vectorized
        self.train_batch = train_batch
        #: Conservative static window: min cut-link propagation delay
        #: (``inf`` when no link crosses the cut — one barrier spans the
        #: run).  The floor for the adaptive windows.
        self.window = plan.window(spec)
        #: Barrier-overhead counters, populated by :meth:`execute`.
        self.barriers = 0
        self.rounds = 0
        self.skips = 0
        # Destination name -> owning partition, for outbox routing.  Cut
        # links are always core-core (access links follow their core), so
        # packet messages target cores; control messages target edges.
        self._partition_of: Dict[str, int] = {}
        for core, part in plan.assignments:
            self._partition_of[core] = part
        for flow in self.flows:
            self._partition_of[flow.ingress_edge] = plan.partition_of(
                flow.ingress_core
            )
            self._partition_of[flow.egress_edge] = plan.partition_of(
                flow.egress_core
            )
        #: The coordinator's whole-topology view (identical to every
        #: worker's): channel delays now, result paths/capacities later.
        self._shadow = ShadowGraph(spec, self.flows)
        self._shadow.require_routable(self.flows, spec.name)
        self._lookahead: List[List[float]] = lookahead_closure(
            self._channel_matrix()
        )

    def _channel_matrix(self) -> List[List[float]]:
        """Per-ordered-pair minimum cross-partition message delay.

        Data channels are the directed cut links some flow's route
        actually uses (under non-static routing every directed cut link
        is assumed live — paths vary per packet, so the conservative
        superset is the only sound choice).  Control channels come from
        the scheme strategy, at the shadow-path delay ``send_control``
        charges.  Same-partition channels are discarded by
        :func:`channel_delay_matrix`.
        """
        shadow = self._shadow
        plan = self.plan
        channels: List[Tuple[int, int, float]] = []
        directed: Dict[str, Tuple[int, int, float]] = {}
        for link in plan.cut_links(self.spec):
            pa = plan.partition_of(link.a)
            pb = plan.partition_of(link.b)
            directed[f"{link.a}->{link.b}"] = (pa, pb, link.prop_delay)
            directed[f"{link.b}->{link.a}"] = (pb, pa, link.prop_delay)
        core_set = set(self.spec.cores)
        on_path_cores: Dict[int, Tuple[str, ...]] = {}
        if self.spec.routing_mode == "static":
            for flow in self.flows:
                names = shadow.path_link_names(flow.ingress_edge, flow.egress_edge)
                cores: List[str] = []
                for name in names:
                    if name in directed:
                        channels.append(directed[name])
                    src = name.partition("->")[0]
                    if src in core_set:
                        cores.append(src)
                on_path_cores[flow.flow_id] = tuple(dict.fromkeys(cores))
        else:
            channels.extend(directed.values())
            all_cores = tuple(self.spec.cores)
            for flow in self.flows:
                on_path_cores[flow.flow_id] = all_cores
        strategy_cls = SCHEME_STRATEGIES[self.scheme]
        part = self._partition_of
        for src, dst in strategy_cls.control_channels(self.flows, on_path_cores):
            src_part = part[src]
            dst_part = part[dst]
            if src_part != dst_part:
                channels.append((src_part, dst_part, shadow.path_delay(src, dst)))
        return channel_delay_matrix(self.plan.num_partitions, channels)

    # -- lifecycle --------------------------------------------------------

    def _payloads(self) -> List[Dict]:
        return [
            {
                "spec": self.spec,
                "scheme": self.scheme,
                "flows": self.flows,
                "seed": self.seed,
                "config": self.config,
                "plan": self.plan,
                "index": index,
                "vectorized": self.vectorized,
                "train_batch": self.train_batch,
                "queue_factory": self.queue_factory,
                "partition_of": self._partition_of,
            }
            for index in range(self.plan.num_partitions)
        ]

    def start(self):
        """Spawn/build every partition worker (the untimed setup phase)."""
        if self.mode == "inline":
            return _InlineSession(self._payloads())
        return _ProcessSession(self._payloads())

    def execute(
        self,
        session,
        until: float,
        sample_interval: float = 1.0,
        record_queues: bool = False,
    ) -> RunResult:
        """Drive the window barrier loop on a started session and merge."""
        check_run_arguments(until, sample_interval)
        num = self.plan.num_partitions
        self.barriers = 0
        self.rounds = 0
        self.skips = 0
        #: Per-partition logical clock: everything strictly before it has
        #: executed (or provably cannot exist).
        clock = [0.0] * num
        #: Cached lookahead promises; ``known[j]`` distinguishes "never
        #: heard from j" from "j reported nothing pending" (inf).
        peek = [0.0] * num
        known = [False] * num
        sched_pending = [True] * num
        #: Undelivered batches per destination: ``(src_index, payload)``.
        pending: List[List[Tuple[int, Tuple]]] = [[] for _ in range(num)]
        pending_min = [math.inf] * num
        sched = (until, sample_interval, record_queues)

        def make_request(j: int, t_next: float) -> Tuple:
            if pending_min[j] < clock[j]:  # pragma: no cover - protocol invariant
                raise SimulationError(
                    f"pdes window protocol violated: message for partition "
                    f"{j} at t={pending_min[j]} behind its clock {clock[j]}"
                )
            batches = pending[j]
            pending[j] = []
            pending_min[j] = math.inf
            request = (j, t_next, batches, sched if sched_pending[j] else None)
            sched_pending[j] = False
            return request

        def absorb(j: int, t_next: float, result: Tuple) -> None:
            out, promise = result
            clock[j] = t_next
            known[j] = True
            peek[j] = math.inf if promise is None else promise
            self.barriers += 1
            for dst, payload in out.items():
                pending[dst].append((j, payload))
                if payload[1] < pending_min[dst]:
                    pending_min[dst] = payload[1]

        def can_skip(j: int, t_next: float) -> bool:
            """No round-trip needed: nothing to inject and the cached
            promise proves the partition is idle through ``t_next``."""
            return (
                not pending[j]
                and not sched_pending[j]
                and known[j]
                and peek[j] > t_next
            )

        closure = self._lookahead

        def bounds() -> List[float]:
            # eff[i]: the earliest time partition i can act — its
            # own next event, or an undelivered message bound for it.
            eff = [
                min(
                    peek[i] if known[i] else clock[i],
                    pending_min[i],
                )
                for i in range(num)
            ]
            return [
                min(
                    until,
                    min(eff[i] + closure[i][j] for i in range(num)),
                )
                for j in range(num)
            ]

        while min(clock) < until:
            self.rounds += 1
            t_next = bounds()
            if self.mode == "inline":
                # Gauss–Seidel: one partition per round, lowest clock
                # first, so every later bound sees this step's fresh
                # promise — lookahead compounds across the sweep.
                due = [j for j in range(num) if t_next[j] > clock[j]]
                if not due:  # pragma: no cover - progress invariant
                    raise SimulationError(
                        "pdes adaptive window deadlock: no partition "
                        "can advance"
                    )
                j = min(due, key=lambda j: (clock[j], j))
                if can_skip(j, t_next[j]):
                    clock[j] = t_next[j]
                    self.skips += 1
                else:
                    tn = t_next[j]
                    results = session.windows([make_request(j, tn)])
                    absorb(j, tn, results[j])
            else:
                # Jacobi: every due partition steps concurrently —
                # bounds are computed once from the pre-round state,
                # so the windows are independent and run in parallel.
                requests = []
                for j in range(num):
                    if t_next[j] <= clock[j]:
                        continue
                    if can_skip(j, t_next[j]):
                        clock[j] = t_next[j]
                        self.skips += 1
                        continue
                    requests.append(make_request(j, t_next[j]))
                if not requests:
                    continue
                results = session.windows(requests)
                for j, tn, _batches, _sched in requests:
                    absorb(j, tn, results[j])

        # Horizon flush: messages timed exactly at ``until`` still run
        # in the serial schedule (run(until) executes events at until),
        # so partitions holding one get a zero-width window.  Anything
        # earlier is a protocol violation; anything later is in flight
        # past the horizon and is dropped, exactly like the serial run
        # drops packets still on the wire at ``until``.
        flush = []
        for j in range(num):
            if pending_min[j] < until:  # pragma: no cover - protocol invariant
                raise SimulationError(
                    f"pdes window protocol violated: message for "
                    f"t={pending_min[j]} left undelivered at horizon {until}"
                )
            if pending[j] and pending_min[j] == until:
                flush.append(make_request(j, until))
        if flush:
            results = session.windows(flush)
            for j, tn, _batches, _sched in flush:
                absorb(j, tn, results[j])

        fragments = session.finish()
        return self._merge(fragments, until, record_queues)

    def run(
        self,
        until: float,
        sample_interval: float = 1.0,
        record_queues: bool = False,
    ) -> RunResult:
        """Start, execute and merge in one step (the serial-shaped API)."""
        session = self.start()
        try:
            return self.execute(
                session, until, sample_interval, record_queues=record_queues
            )
        finally:
            session.close()

    # -- merging ----------------------------------------------------------

    @staticmethod
    def _series(name: str, payload: Tuple[List[float], List[float]]) -> Series:
        series = Series(name)
        times, values = payload
        for time, value in zip(times, values):
            series.append(time, value)
        return series

    def _merge(
        self, fragments: List[Dict], until: float, record_queues: bool = False
    ) -> RunResult:
        """Assemble per-partition fragments into one serial-shaped result.

        Rate series come from each flow's ingress partition, delivery
        accounting from its egress partition, queue series from whichever
        partition hosts each link's sending side, and paths/capacities
        from the coordinator's own shadow graph (identical to every
        worker's).
        """
        shadow = self._shadow
        records: Dict[int, FlowRecord] = {}
        for spec in self.flows:
            fid = spec.flow_id
            ingress_frag = fragments[self.plan.partition_of(spec.ingress_core)]
            egress_frag = fragments[self.plan.partition_of(spec.egress_core)]
            ingress = ingress_frag["flows"][fid]
            egress = egress_frag["flows"][fid]
            record = FlowRecord(
                flow_id=fid,
                weight=spec.network_weight,
                schedule=spec.schedule,
                path_links=shadow.path_link_names(
                    spec.ingress_edge, spec.egress_edge
                ),
                rate_series=self._series(f"rate:{fid}", ingress["rate"]),
                throughput_series=self._series(f"tput:{fid}", egress["tput"]),
                cumulative_series=self._series(f"cum:{fid}", egress["cum"]),
                demand=spec.demand(),
            )
            record.delivered = egress["delivered"]
            record.losses = egress["losses"]
            record.delay = egress["delay"]
            records[fid] = record
        queue_series: Optional[Dict[str, Series]] = None
        if record_queues:
            queue_series = {}
            for fragment in fragments:
                for name, payload in fragment.get("queues", {}).items():
                    queue_series[name] = self._series(f"queue:{name}", payload)
        return RunResult(
            scheme=self.scheme,
            duration=until,
            capacities=dict(shadow.capacities),
            flows=records,
            total_drops=sum(fragment["drops"] for fragment in fragments),
            seed=self.seed,
            queue_series=queue_series,
            policy_drops=sum(fragment["policy_drops"] for fragment in fragments),
        )
