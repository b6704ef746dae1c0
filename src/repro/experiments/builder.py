"""Scheme-agnostic cloud construction (layer 2 of the pipeline).

:class:`CloudBuilder` turns a declarative
:class:`~repro.experiments.topospec.TopologySpec` plus
:class:`~repro.experiments.topospec.FlowPathSpec` entries into a runnable
:class:`Cloud`: one simulator, the core graph with its queues and links,
per-flow edge routers and access links, shortest-delay routing tables, the
control plane, and the run-time monitors.  All of that wiring is identical
for every scheme; what differs — which router/edge classes to build, how
feedback or loss notifications travel, which links run admission — is
concentrated in a small :class:`SchemeStrategy` object per scheme:

* :class:`CoreliteStrategy` — Corelite cores + edges, feedback markers
  over the control plane, TCP host attachment;
* :class:`CsfqStrategy` — weighted-CSFQ cores + edges, egress-to-ingress
  loss notifications;
* :class:`FifoStrategy` — CSFQ sources over pure FIFO/AQM forwarders
  (the §5 strawman: nothing is enabled on any link).

``CloudBuilder(spec, scheme)`` is the one front door: figures, ablations,
the scenario DSL, the examples and corebench all build through it, and
:data:`SCHEME_STRATEGIES` is the one place a scheme name maps to code.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, FlowError, RoutingError, TopologyError
from repro.experiments import fastpaths
from repro.experiments.runner import FlowRecord, RunResult
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.fairness.maxmin import FlowDemand, weighted_maxmin
from repro.sim.control import ControlPlane
from repro.sim.dynamics import NetworkDynamics
from repro.sim.engine import Simulator
from repro.sim.node import Router
from repro.sim.monitor import Series
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology
from repro.units import ms_to_s

__all__ = [
    "SchemeStrategy",
    "CoreliteStrategy",
    "CsfqStrategy",
    "FifoStrategy",
    "SCHEME_STRATEGIES",
    "Cloud",
    "CloudBuilder",
]


class SchemeStrategy:
    """Everything scheme-specific about building one cloud.

    A strategy instance is bound to exactly one :class:`Cloud` and answers
    the cloud's construction hooks.  The base class implements the parts that
    are genuinely shared: taking a private copy of the scheme config and
    clamping it to the cloud's access capacity after the cores exist.
    """

    scheme = "base"
    #: The scheme's config dataclass; ``None`` for config-less schemes.
    config_cls: Optional[type] = None

    def __init__(self, config=None) -> None:
        if config is not None and self.config_cls is not None:
            if not isinstance(config, self.config_cls):
                raise ConfigurationError(
                    f"scheme {self.scheme!r} expects a "
                    f"{self.config_cls.__name__}, got {type(config).__name__}"
                )
        self._config_arg = config
        self.cloud: Optional["Cloud"] = None

    # -- lifecycle -------------------------------------------------------

    def make_config(self):
        """A private copy of the scheme config (set before any core is
        built, so every router shares the exact same object)."""
        if self.config_cls is None:
            return None
        base = self._config_arg if self._config_arg is not None else self.config_cls()
        return dataclasses.replace(base)

    def bind(self, cloud: "Cloud") -> None:
        if self.cloud is not None:
            raise ConfigurationError(
                f"a {type(self).__name__} is bound to one cloud; "
                "build a fresh strategy per cloud"
            )
        self.cloud = cloud

    def clamp_config(self, cloud: "Cloud") -> None:
        """In-place config clamp after topology construction.

        Shape every flow to at most its access-link speed: the edge knows
        its own port rate, and this keeps a momentarily-unopposed flow
        from outrunning a link that generates no feedback of its own.
        """
        config = cloud.config
        if config is None:
            return
        config.max_rate = min(config.max_rate, cloud.access_capacity_pps)
        config.__post_init__()  # re-validate after the in-place clamp

    # -- construction hooks ----------------------------------------------

    def make_core(self, cloud: "Cloud", name: str):
        raise NotImplementedError

    def make_edge(self, cloud: "Cloud", name: str):
        raise NotImplementedError

    def _new_edge(self, edge_cls: type, cloud: "Cloud", name: str, **kwargs):
        """An :class:`~repro.core.edge.EdgeRouter` whose first adaptation
        tick is drawn from the edge's own stream, so edges built together
        do not adapt in lockstep."""
        offset = cloud.rng.stream(f"edge-epoch:{name}").uniform(
            0.0, cloud.config.edge_epoch
        )
        return edge_cls(name, cloud.sim, cloud.config, epoch_offset=offset, **kwargs)

    def attach_ingress(self, cloud: "Cloud", edge, spec: FlowPathSpec) -> None:
        raise NotImplementedError

    def enable_core_links(self, cloud: "Cloud") -> None:
        """Every core runs the scheme's machinery on each of its output links."""
        for link in cloud._core_output_links():
            core = cloud.topology.nodes[link.src_name]
            core.enable_on_link(link)

    def policy_drops(self, cloud: "Cloud") -> int:
        """Data packets its cores dropped by policy, unseen by ``total_drops()``."""
        return 0

    def attach_tcp_hosts(self, cloud: "Cloud", spec: FlowPathSpec) -> None:
        raise ConfigurationError(
            f"scheme {self.scheme!r} does not support TCP transport "
            "(a Corelite edge feature)"
        )

    @classmethod
    def control_channels(cls, flows, on_path_cores):
        """Ordered ``(src_node, dst_node)`` pairs the scheme's control
        plane can message over, delivered at ``shadow.path_delay(src,
        dst)`` (the contract of ``send_control``).  The adaptive PDES
        coordinator folds these into its channel-delay matrix, so every
        scheme MUST enumerate its cross-partition control traffic here —
        a missing channel would let a partition run past a message still
        in flight.  ``on_path_cores`` maps ``flow_id`` to the cores that
        can observe that flow's packets (all cores when routing is
        non-deterministic).
        """
        raise NotImplementedError


class CoreliteStrategy(SchemeStrategy):
    """Corelite cores and edges (paper §2-§3 mechanisms end to end)."""

    scheme = "corelite"

    @property
    def config_cls(self):  # lazy: avoid import cycles at module import
        from repro.core.config import CoreliteConfig

        return CoreliteConfig

    def make_core(self, cloud: "Cloud", name: str):
        from repro.core.router import CoreliteCoreRouter

        def send_feedback(packet: Packet, router_name: str = name) -> None:
            edge = cloud.edges.get(packet.dst)
            if edge is None:
                # In a partitioned cloud the marker's origin edge may live
                # in another partition: hand the feedback to the partition
                # runtime, which delivers it across the cut at reverse-path
                # propagation delay (>= one window by construction).
                if cloud.partition is not None:
                    cloud.partition.send_control(
                        router_name, packet.dst, "feedback", packet
                    )
                    return
                raise FlowError(f"feedback for unknown edge {packet.dst!r}")
            cloud.control.send(router_name, packet.dst, edge.receive_feedback, packet)

        return CoreliteCoreRouter(
            name, cloud.sim, cloud.config, cloud.rng, send_feedback,
            batch_feedback=cloud.vectorized,
        )

    def make_edge(self, cloud: "Cloud", name: str):
        from repro.core.edge import CoreliteEdge

        return self._new_edge(CoreliteEdge, cloud, name, train_batch=cloud.train_batch)

    def attach_ingress(self, cloud: "Cloud", edge, spec: FlowPathSpec) -> None:
        from repro.core.edge import FlowAttachment

        # The attachment carries the *network-level* (bucket) weight and
        # contract; for aggregate=1 these equal the member values exactly.
        edge.attach_flow(
            FlowAttachment(
                flow_id=spec.flow_id,
                weight=spec.network_weight,
                dst_edge=spec.egress_edge,
                min_rate=spec.network_min_rate,
                backlogged=spec.backlogged,
                external=spec.transport == "tcp",
                aggregate=spec.aggregate,
            )
        )

    def attach_tcp_hosts(self, cloud: "Cloud", spec: FlowPathSpec) -> None:
        from repro.hosts.tcp import TcpReceiver, TcpSender

        sender = TcpSender(
            spec.sender_host, cloud.sim, spec.flow_id, dst_host=spec.receiver_host
        )
        receiver = TcpReceiver(
            spec.receiver_host, cloud.sim, spec.flow_id, src_host=spec.sender_host
        )
        cloud.topology.add_node(sender)
        cloud.topology.add_node(receiver)
        # Host links are fast and short, with deep TX queues: a real host
        # backpressures its application instead of dropping in its own
        # NIC, so losses happen where the paper places them — at the edge
        # shaper's policing buffer.
        host_delay = ms_to_s(1.0)
        host_capacity = 2.0 * cloud.access_capacity_pps

        def host_queue() -> DropTailQueue:
            return DropTailQueue(capacity=100_000)

        cloud.topology.add_duplex_link(
            spec.sender_host, spec.ingress_edge, host_capacity, host_delay, host_queue
        )
        cloud.topology.add_duplex_link(
            spec.egress_edge, spec.receiver_host, host_capacity, host_delay, host_queue
        )
        cloud._extra_destinations += [spec.sender_host, spec.receiver_host]
        cloud.tcp_hosts[spec.flow_id] = (sender, receiver)

    @classmethod
    def control_channels(cls, flows, on_path_cores):
        # Rate feedback: any core whose machinery observes a flow's
        # markers (every on-path core — core output links include the
        # egress access link) emits toward that flow's ingress edge.
        for flow in flows:
            for core in on_path_cores[flow.flow_id]:
                yield core, flow.ingress_edge


class CsfqStrategy(SchemeStrategy):
    """Weighted-CSFQ cores and edges (the paper's §4 comparison baseline)."""

    scheme = "csfq"

    @property
    def config_cls(self):
        from repro.csfq.config import CsfqConfig

        return CsfqConfig

    def make_core(self, cloud: "Cloud", name: str):
        from repro.csfq.router import CsfqCoreRouter

        return CsfqCoreRouter(name, cloud.sim, cloud.config, cloud.rng)

    def make_edge(self, cloud: "Cloud", name: str):
        from repro.csfq.edge import CsfqEdge

        edge = self._new_edge(CsfqEdge, cloud, name)

        def loss_channel(packet: Packet, src: str = name) -> None:
            ingress = cloud.edges.get(packet.dst)
            if ingress is None:
                # Cross-partition loss notification (see CoreliteStrategy's
                # feedback path): route through the partition runtime.
                if cloud.partition is not None:
                    cloud.partition.send_control(src, packet.dst, "loss", packet)
                    return
                raise FlowError(f"loss notification for unknown edge {packet.dst!r}")
            cloud.control.send(src, packet.dst, ingress.receive_loss_notify, packet)

        edge.loss_channel = loss_channel
        return edge

    def attach_ingress(self, cloud: "Cloud", edge, spec: FlowPathSpec) -> None:
        from repro.core.edge import FlowAttachment

        if spec.min_rate > 0:
            raise ConfigurationError(
                f"flow {spec.flow_id}: min_rate={spec.min_rate:g} — minimum "
                "rate contracts are a Corelite feature; CSFQ has no "
                "mechanism to honor them"
            )
        edge.attach_flow(
            FlowAttachment(
                flow_id=spec.flow_id,
                weight=spec.network_weight,
                dst_edge=spec.egress_edge,
                backlogged=spec.backlogged,
                aggregate=spec.aggregate,
            )
        )

    def policy_drops(self, cloud: "Cloud") -> int:
        nodes = cloud.topology.nodes  # (FIFO cores enable no link: state None)
        links = cloud._core_output_links()
        states = (nodes[link.src_name].state_for(link.name) for link in links)
        return sum(state.prob_drops for state in states if state is not None)

    @classmethod
    def control_channels(cls, flows, on_path_cores):
        # Loss notifications travel egress edge -> ingress edge; the
        # cores are stateless and emit nothing.  (FifoStrategy inherits
        # this: its edges reuse the CSFQ loss channel.)
        for flow in flows:
            yield flow.egress_edge, flow.ingress_edge


class FifoStrategy(CsfqStrategy):
    """Plain FIFO (or any AQM queue) cores with loss-driven LIMD sources.

    No CSFQ admission runs anywhere: the cores are pure forwarders over
    whatever ``queue_factory`` provides (drop-tail by default, RED/DECbit
    for the ABL-AQM ablation), and sources adapt to egress-detected losses
    exactly as CSFQ sources do.  This is the §5 strawman: congestion
    feedback without normalized-rate information cannot produce *weighted*
    fairness — drops hit flows in proportion to their arrival share, so
    LIMD equalizes raw rates instead of normalized ones.
    """

    scheme = "fifo"

    def enable_core_links(self, cloud: "Cloud") -> None:
        # Deliberately nothing: packets meet only the queue discipline.
        return None


#: scheme name -> strategy class, the registry CloudBuilder and the
#: scenario DSL resolve against.
SCHEME_STRATEGIES: Dict[str, type] = {
    "corelite": CoreliteStrategy,
    "csfq": CsfqStrategy,
    "fifo": FifoStrategy,
}


def check_run_arguments(until: float, sample_interval: float) -> None:
    """A run needs a finite, positive horizon and sampling period (NaN is
    neither: an infinite or NaN horizon never ends)."""
    if not 0 < until < math.inf:
        raise ConfigurationError(f"run duration must be finite and > 0, got {until}")
    if not 0 < sample_interval < math.inf:
        raise ConfigurationError(
            f"sample interval must be finite and > 0, got {sample_interval}"
        )


class Cloud:
    """One runnable cloud built from a :class:`TopologySpec`.

    Owns the simulator, runtime topology, control plane and all per-flow
    state; delegates every scheme-specific decision to its strategy.
    """

    def __init__(
        self,
        spec: TopologySpec,
        strategy: SchemeStrategy,
        *,
        seed: int = 0,
        queue_factory: Optional[Callable[[], DropTailQueue]] = None,
        vectorized: bool = False,
        train_batch: int = 1,
        partition=None,
    ) -> None:
        """``queue_factory`` overrides the default drop-tail buffer on
        every link (used by the AQM ablations to swap in RED or DECbit
        queues) and takes precedence over per-link ``queue_capacity``
        overrides in the spec.
        ``vectorized=True`` batches the Corelite feedback: cores coalesce
        what one link selects during one congestion epoch into a single
        counted FEEDBACK packet per (flow, edge) — a control-plane choice,
        the datapath is the same.  Feedback arrives quantized to the core
        epoch, so results are statistically equivalent (pinned by Jain/per-flow
        tolerance tests) but not byte-identical to the default; CSFQ and
        FIFO have no marker traffic, so for them the flag is inert.
        ``train_batch = K > 1`` turns on the packet-train datapath: Corelite
        edge shapers emit up to K packets per firing as one
        :class:`~repro.sim.packet.PacketTrain` that links transmit as a
        single event, splitting back into scalars at any per-packet
        decision boundary; like ``vectorized``, train runs are pinned
        statistically, and the default K = 1 stays byte-identical.  A CSFQ
        core decides per packet, so CSFQ and FIFO edges stay scalar and
        the flag is inert for them too.

        ``partition`` (internal; set by :mod:`repro.experiments.pdes`)
        restricts the build to one domain of a partitioned cloud: only
        the cores/edges the partition owns are constructed, cut links
        become :class:`~repro.sim.link.BoundaryLink` halves emitting into
        the partition's outbox, and routing/control delays are resolved
        over the partition runtime's global shadow graph."""
        if not isinstance(spec, TopologySpec):
            raise ConfigurationError(
                f"Cloud needs a TopologySpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.strategy = strategy
        strategy.bind(self)
        self.scheme = strategy.scheme
        self.vectorized = vectorized
        if type(train_batch) is not int or train_batch < 1:
            raise ConfigurationError(
                f"train_batch must be a positive integer, got {train_batch!r}"
            )
        self.train_batch = train_batch
        #: Partition runtime when this cloud is one domain of a
        #: partitioned run; ``None`` for the serial build.
        self.partition = partition
        self.config = strategy.make_config()
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.seed = seed
        self.topology = Topology(self.sim)
        if partition is None:
            self.control = ControlPlane(self.sim, self.topology)
        else:
            self.control = partition.make_control_plane(self)
        self.access_capacity_pps = spec.access_capacity_pps
        self.prop_delay = spec.access_prop_delay
        self.core_names: List[str] = list(spec.cores)
        self.edges: Dict[str, object] = {}
        self.flows: Dict[int, FlowPathSpec] = {}
        #: Topology-event executor (built at finalize when the spec has
        #: events; None for static scenarios).
        self.dynamics: Optional[NetworkDynamics] = None
        self._finalized = False
        #: Non-edge routing destinations (end hosts of TCP flows).
        self._extra_destinations: List[str] = []
        #: flow_id -> (TcpSender, TcpReceiver) for transport="tcp" flows.
        self.tcp_hosts: Dict[int, Tuple[object, object]] = {}

        def default_queue_factory() -> DropTailQueue:
            return DropTailQueue(capacity=spec.queue_capacity)

        self._queue_factory = queue_factory or default_queue_factory
        self._explicit_queue_factory = queue_factory is not None

        self.topology.set_routing(spec.routing_mode, spec.ecmp_flowlet_n_packets)
        for name in self.core_names:
            if partition is None or partition.owns(name):
                self.topology.add_node(strategy.make_core(self, name))
        for link in spec.links:
            factory = self._link_queue_factory(link)
            if partition is None:
                self.topology.add_duplex_link(
                    link.a, link.b, link.capacity_pps, link.prop_delay, factory
                )
                continue
            a_local = partition.owns(link.a)
            b_local = partition.owns(link.b)
            if a_local and b_local:
                self.topology.add_duplex_link(
                    link.a, link.b, link.capacity_pps, link.prop_delay, factory
                )
            elif a_local:
                # Each side of a cut duplex builds only its *outgoing*
                # half; the reverse direction is the other partition's.
                self.topology.add_boundary_link(
                    link.a, link.b, link.capacity_pps, link.prop_delay,
                    factory, partition.boundary_emit(link.b),
                )
            elif b_local:
                self.topology.add_boundary_link(
                    link.b, link.a, link.capacity_pps, link.prop_delay,
                    factory, partition.boundary_emit(link.a),
                )
        strategy.clamp_config(self)

    def _link_queue_factory(self, link: LinkSpec) -> Callable[[], DropTailQueue]:
        if self._explicit_queue_factory or link.queue_capacity is None:
            return self._queue_factory
        return lambda: DropTailQueue(capacity=link.queue_capacity)

    # -- construction ---------------------------------------------------

    def add_flow(self, spec: FlowPathSpec) -> None:
        """Create the flow's edges, access links and per-flow state."""
        if self._finalized:
            raise ConfigurationError("cannot add flows after finalize()/run()")
        if spec.flow_id in self.flows:
            raise FlowError(f"duplicate flow id {spec.flow_id}")
        for field_name, core in (
            ("ingress_core", spec.ingress_core),
            ("egress_core", spec.egress_core),
        ):
            if core not in self.core_names:
                raise TopologyError(
                    f"flow {spec.flow_id}: {field_name}={core!r} is not a "
                    f"core of topology {self.spec.name!r} "
                    f"(cores: {sorted(self.core_names)})"
                )
        if self.partition is not None:
            self._add_flow_partitioned(spec)
            return
        ingress = self.strategy.make_edge(self, spec.ingress_edge)
        egress = self.strategy.make_edge(self, spec.egress_edge)
        self.topology.add_node(ingress)
        self.topology.add_node(egress)
        self.edges[ingress.name] = ingress
        self.edges[egress.name] = egress
        # An aggregate bucket's access port carries N members' worth of
        # traffic, so it gets N times the per-flow access capacity (the
        # controller ceiling scales to match via rate_scale).
        access_capacity = self.access_capacity_pps * spec.aggregate
        self.topology.add_duplex_link(
            spec.ingress_edge,
            spec.ingress_core,
            access_capacity,
            self.prop_delay,
            self._queue_factory,
        )
        self.topology.add_duplex_link(
            spec.egress_core,
            spec.egress_edge,
            access_capacity,
            self.prop_delay,
            self._queue_factory,
        )
        self.strategy.attach_ingress(self, ingress, spec)
        egress.expect_flow(spec.flow_id)
        if spec.transport == "tcp":
            self.strategy.attach_tcp_hosts(self, spec)
        self.flows[spec.flow_id] = spec

    def _add_flow_partitioned(self, spec: FlowPathSpec) -> None:
        """Build only the locally-owned slice of a flow.

        A flow's edges follow their cores: the ingress edge, its access
        links and the traffic source live in the ingress core's
        partition; the egress edge and its accounting live in the egress
        core's.  A flow touching neither partition contributes nothing
        locally (it is still registered with the runtime so the shadow
        graph and routing tables agree globally).
        """
        partition = self.partition
        if spec.transport == "tcp":
            raise ConfigurationError(
                f"flow {spec.flow_id}: TCP transport is not supported in "
                "partitioned clouds (host attachment spans partitions)"
            )
        ingress_local = partition.owns(spec.ingress_core)
        egress_local = partition.owns(spec.egress_core)
        if not ingress_local and not egress_local:
            return
        access_capacity = self.access_capacity_pps * spec.aggregate
        if ingress_local:
            ingress = self.strategy.make_edge(self, spec.ingress_edge)
            self.topology.add_node(ingress)
            self.edges[ingress.name] = ingress
            self.topology.add_duplex_link(
                spec.ingress_edge,
                spec.ingress_core,
                access_capacity,
                self.prop_delay,
                self._queue_factory,
            )
            self.strategy.attach_ingress(self, ingress, spec)
        if egress_local:
            egress = self.strategy.make_edge(self, spec.egress_edge)
            self.topology.add_node(egress)
            self.edges[egress.name] = egress
            self.topology.add_duplex_link(
                spec.egress_core,
                spec.egress_edge,
                access_capacity,
                self.prop_delay,
                self._queue_factory,
            )
            egress.expect_flow(spec.flow_id)
        self.flows[spec.flow_id] = spec

    def add_flows(self, specs: Iterable[FlowPathSpec]) -> None:
        for spec in specs:
            self.add_flow(spec)

    def finalize(self) -> None:
        """Compute routes, enable the scheme, admit contracts, and plan the
        fast paths (:func:`repro.experiments.fastpaths.plan`) last."""
        if self._finalized:
            return
        links = self.topology.links
        if self.partition is not None:
            # Routes, core-link enablement and admission run against the
            # runtime's global shadow graph, so every partition installs
            # the same forwarding decisions the serial build would.  No hop
            # is handed over in a partition.
            self.partition.finalize_cloud(self)
            names = (f"{spec.egress_core}->{spec.egress_edge}" for spec in self.flows.values())
            last_hops = {links[name]: None for name in names if name in links}
            fastpaths.plan(links.values(), self.edges.values(), last_hops)
            self._finalized = True
            return
        if not self.flows:
            raise ConfigurationError("no flows added")
        destinations = list(self.edges) + self._extra_destinations
        try:
            self.topology.build_routes(destinations=destinations)
        except RoutingError as exc:
            # Prefer an error naming the unroutable *flow*; if every flow
            # routes (the unreachable pair crosses two islands no flow
            # uses), report the disconnection itself.
            self._check_routability()
            raise TopologyError(
                f"topology {self.spec.name!r} is disconnected: {exc}"
            ) from exc
        last_hops = self._check_routability()
        self.strategy.enable_core_links(self)
        self._admit_contracts()
        if self.spec.events:
            self.dynamics = NetworkDynamics(
                self.sim,
                self.topology,
                self.spec.events,
                control=self.control,
            )
            # A failure may legally partition the graph mid-run: table
            # misses become counted drops instead of crashes.
            for node in self.topology.nodes.values():
                if isinstance(node, Router):
                    node.drop_unrouted = True
        fixed = not self.spec.events and self.topology.routing_mode == "static"
        fastpaths.plan(links.values(), self.edges.values(), last_hops, fixed)
        self._finalized = True

    def _check_routability(self) -> dict:
        """Fail at finalize time, naming the flow, if any flow has no
        path from its ingress edge to its egress edge; else map each flow's
        own last link to the one before."""
        last_hops = {}
        for fid, spec in self.flows.items():
            try:  # noqa: PERF203 -- cold path; the per-flow error context is the point
                *_, in_link, egress = self.topology.path_links(spec.ingress_edge, spec.egress_edge)
            except RoutingError as exc:
                raise TopologyError(
                    f"flow {fid}: no route from ingress_core "
                    f"{spec.ingress_core!r} to egress_core "
                    f"{spec.egress_core!r} in topology {self.spec.name!r} "
                    f"({exc})"
                ) from exc
            last_hops[egress] = in_link
        return last_hops

    def _admit_contracts(self) -> None:
        """Run admission control over every contracted flow (Corelite)."""
        contracted = [spec for spec in self.flows.values() if spec.min_rate > 0]
        if not contracted:
            return
        from repro.core.admission import AdmissionController

        self.admission = AdmissionController(self.link_capacities())
        for spec in contracted:
            path = self.flow_path_links(spec.flow_id)
            if not self.admission.request(
                spec.flow_id, path, spec.network_min_rate
            ):
                raise ConfigurationError(
                    f"flow {spec.flow_id}: contract of {spec.network_min_rate} "
                    f"pkt/s rejected by admission control (insufficient "
                    f"headroom along {path})"
                )

    def _core_output_links(self):
        for link in self.topology.links.values():
            if link.src_name in self.core_names:
                yield link

    # -- flow paths, capacities, reference allocation ---------------------

    def flow_path_links(self, flow_id: int) -> Tuple[str, ...]:
        """The links of the flow's static shortest path, ingress edge to
        egress edge, over the current tables (after a link event, the
        rerouted path).  The reference, admission and feedback delay all
        read this one path; ECMP and flowlet routing may send the flow's
        packets elsewhere."""
        spec = self.flows[flow_id]
        links = self.topology.path_links(spec.ingress_edge, spec.egress_edge)
        return tuple(link.name for link in links)

    def link_capacities(self) -> Dict[str, float]:
        return {name: link.bandwidth_pps for name, link in self.topology.links.items()}

    def reference_rates(self) -> Dict[int, float]:
        """Weighted max-min reference allocation for every flow.

        Finalizes the cloud (computing routes) if needed, then water-fills
        the actual link capacities over every flow's static shortest path
        (:meth:`flow_path_links`) with
        :func:`repro.fairness.maxmin.weighted_maxmin`.  Schedules are
        ignored — this is the steady-state reference when all flows are
        on; for instant-by-instant expectations over a run use
        :meth:`repro.experiments.runner.RunResult.expected_rates`.
        """
        self.finalize()
        demands = [
            FlowDemand(
                fid,
                spec.network_weight,
                self.flow_path_links(fid),
                demand=spec.demand(),
            )
            for fid, spec in self.flows.items()
        ]
        if not demands:
            return {}
        return weighted_maxmin(self.link_capacities(), demands)

    def _post_event_reference(self) -> Dict[int, float]:
        """Weighted max-min reference over the *current* (post-event)
        topology, tolerant of partitioned flows (their expectation is 0)."""
        demands = []
        disconnected = []
        for fid, spec in self.flows.items():
            try:  # noqa: PERF203 -- cold path; partitioned flows are expected here
                path = self.flow_path_links(fid)
            except RoutingError:
                disconnected.append(fid)
                continue
            demands.append(
                FlowDemand(
                    fid, spec.network_weight, path, demand=spec.demand()
                )
            )
        reference = (
            weighted_maxmin(self.link_capacities(), demands) if demands else {}
        )
        for fid in disconnected:
            reference[fid] = 0.0
        return reference

    # -- scheme-specific accessors ----------------------------------------

    def core_router(self, name: str):
        node = self.topology.nodes[name]
        if name not in self.core_names:
            raise TopologyError(
                f"{name!r} is not a core of topology {self.spec.name!r}"
            )
        return node

    # -- running ----------------------------------------------------------

    def _schedule_flow_traffic(self, fid: int, spec: FlowPathSpec, until: float) -> None:
        """Schedule one flow's on/off transitions and its source.

        Factored out of :meth:`run` so a partitioned run can schedule
        exactly the flows whose ingress it owns; the serial path calls it
        in the same order with the same arguments, so event sequencing
        (and therefore every replay) is unchanged.
        """
        ingress = self.edges[spec.ingress_edge]
        source = None
        if spec.source is not None and not spec.source.is_backlogged:
            source = spec.source.build()
            deposit = partial(ingress.deposit, fid)
            source_rng = self.rng.stream(f"source:{fid}")
        tcp_sender = self.tcp_hosts.get(fid, (None, None))[0]
        for start, stop in spec.schedule:
            if start <= until:
                self.sim.add_fence(start)  # no shaper release runs past it
                self.sim.schedule_at(start, ingress.start_flow, fid)
                if source is not None:
                    self.sim.schedule_at(
                        start, source.start, self.sim, deposit, source_rng
                    )
                if tcp_sender is not None:
                    self.sim.schedule_at(start, tcp_sender.start)
            if math.isfinite(stop) and stop <= until:
                self.sim.add_fence(stop)
                self.sim.schedule_at(stop, ingress.stop_flow, fid)
                if source is not None:
                    self.sim.schedule_at(stop, source.stop)
                if tcp_sender is not None:
                    self.sim.schedule_at(stop, tcp_sender.stop)

    def run(
        self,
        until: float,
        sample_interval: float = 1.0,
        record_queues: bool = False,
    ) -> RunResult:
        """Finalize, schedule the flow on/off events, simulate, collect.

        ``record_queues`` additionally samples every core-to-core link's
        queue occupancy into the result (useful for studying the
        congestion-control dynamics rather than just the rates).

        The sampler resolves each flow's ingress state and egress meter once
        per run (not at finalize), and settles each egress inbox once per flow
        per sample.
        """
        check_run_arguments(until, sample_interval)
        if self.partition is not None:
            raise ConfigurationError(
                "a partition sub-cloud cannot run standalone; drive it "
                "through repro.experiments.pdes.ParallelCloud"
            )
        self.finalize()

        records: Dict[int, FlowRecord] = {}
        for fid, spec in self.flows.items():
            self._schedule_flow_traffic(fid, spec, until)
            records[fid] = FlowRecord(
                flow_id=fid,
                weight=spec.network_weight,
                schedule=spec.schedule,
                path_links=self.flow_path_links(fid),
                rate_series=Series(f"rate:{fid}"),
                throughput_series=Series(f"tput:{fid}"),
                cumulative_series=Series(f"cum:{fid}"),
                demand=spec.demand(),
            )

        if self.dynamics is not None:
            # Scheduled after the flow on/off events: at an equal
            # timestamp, flow transitions precede the topology change
            # (the engine breaks ties by insertion order).
            self.dynamics.schedule(until)

        queue_series: Dict[str, Series] = {}
        core_links = []
        if record_queues:
            for link in self.topology.links.values():
                if link.src_name in self.core_names and link.dst.name in self.core_names:
                    queue_series[link.name] = Series(f"queue:{link.name}")
                    core_links.append(link)

        sim = self.sim
        sampled = []
        for fid, spec in self.flows.items():
            egress = self.edges[spec.egress_edge]
            state = self.edges[spec.ingress_edge]._ingress_state(fid)
            sampled.append((records[fid], state, egress, egress._egress_state(fid).meter))

        def sample() -> None:
            now = sim.now
            for record, state, egress, meter in sampled:
                if egress.inbox:  # booked deliveries first, as every egress read
                    sim.settle(egress.inbox)
                record.rate_series.append(now, state.controller.rate if state.active else 0.0)
                record.throughput_series.append(now, meter.take_rate(now))
                record.cumulative_series.append(now, float(meter.count))
            for link in core_links:
                queue_series[link.name].append(now, link.queue.occupancy)

        sampler = self.sim.every(sample_interval, sample)
        self.sim.run(until=until)
        sampler.stop()
        # Departure-time links book buffer releases and egress deliveries
        # lazily; leave every link current for whoever inspects the cloud.
        for link in self.topology.links.values():
            link.settle()

        for fid, spec in self.flows.items():
            egress = self.edges[spec.egress_edge]
            records[fid].delivered = egress.delivered(fid)
            records[fid].losses = egress.losses(fid)
            records[fid].delay = egress.delay_stats(fid).summary()

        dynamics_summary = None
        if self.dynamics is not None:
            # The reference allocation is water-filled over the *final*
            # paths (post-event topology): the re-convergence metrics
            # compare measured throughput against what weighted max-min
            # grants on the network the flows actually ended up on.
            dynamics_summary = {
                "events": [
                    event.to_dict() for _t, event in self.dynamics.applied
                ],
                "failure_drops": self.dynamics.failure_drops(),
                "control_unroutable": self.control.unroutable,
                "post_reference": self._post_event_reference(),
            }

        return RunResult(
            scheme=self.scheme,
            duration=until,
            capacities=self.link_capacities(),
            flows=records,
            total_drops=self.topology.total_drops(),
            seed=self.seed,
            queue_series=queue_series if record_queues else None,
            dynamics=dynamics_summary,
            policy_drops=self.strategy.policy_drops(self),
        )


class CloudBuilder:
    """Fluent front door of the pipeline: spec in, finalized cloud out.

    Example::

        from repro.experiments.builder import CloudBuilder
        from repro.experiments.topospec import TopologySpec, FlowPathSpec

        cloud = (
            CloudBuilder(TopologySpec.parking_lot(hops=3), scheme="corelite", seed=7)
            .add_flow(FlowPathSpec(1, weight=2.0, ingress_core="C1", egress_core="C4"))
            .add_flow(FlowPathSpec(2, ingress_core="C1", egress_core="C2"))
            .build()
        )
        reference = cloud.reference_rates()
        result = cloud.run(until=120.0)
    """

    def __init__(
        self,
        spec: TopologySpec,
        scheme: str = "corelite",
        *,
        seed: int = 0,
        config=None,
        queue_factory: Optional[Callable[[], DropTailQueue]] = None,
        vectorized: bool = False,
        train_batch: int = 1,
        partitions: int = 1,
        partition_plan=None,
        pdes_mode: str = "process",
    ) -> None:
        if scheme not in SCHEME_STRATEGIES:
            raise ConfigurationError(
                f"unknown scheme {scheme!r}; pick one of {sorted(SCHEME_STRATEGIES)}"
            )
        if partitions < 1:
            raise ConfigurationError(
                f"partitions must be >= 1, got {partitions}"
            )
        if pdes_mode not in ("process", "inline"):
            raise ConfigurationError(
                f"unknown pdes_mode {pdes_mode!r}; pick 'process' or 'inline'"
            )
        self.spec = spec
        self.scheme = scheme
        self.seed = seed
        self.config = config
        self.queue_factory = queue_factory
        self.vectorized = vectorized
        self.train_batch = train_batch
        self.partitions = partitions
        self.partition_plan = partition_plan
        self.pdes_mode = pdes_mode
        self._flows: List[FlowPathSpec] = []

    def add_flow(self, spec: Union[FlowPathSpec, None] = None, **kwargs) -> "CloudBuilder":
        """Queue a flow; accepts a :class:`FlowPathSpec` or its kwargs."""
        if spec is None:
            spec = FlowPathSpec(**kwargs)
        elif kwargs:
            raise ConfigurationError(
                "pass either a FlowPathSpec or keyword fields, not both"
            )
        self._flows.append(spec)
        return self

    def add_flows(self, specs: Iterable[FlowPathSpec]) -> "CloudBuilder":
        for spec in specs:
            self.add_flow(spec)
        return self

    def build(self, finalize: bool = True) -> Cloud:
        """Construct the cloud, attach every queued flow, and (by
        default) finalize it — computing routes and running validation
        and admission, so spec errors surface here rather than at run
        time."""
        if self.partitions > 1:
            raise ConfigurationError(
                "build() constructs a single serial cloud; with "
                "partitions > 1 use build_parallel() or run()"
            )
        strategy = SCHEME_STRATEGIES[self.scheme](self.config)
        cloud = Cloud(
            self.spec,
            strategy,
            seed=self.seed,
            queue_factory=self.queue_factory,
            vectorized=self.vectorized,
            train_batch=self.train_batch,
        )
        cloud.add_flows(self._flows)
        if finalize:
            cloud.finalize()
        return cloud

    def build_parallel(self):
        """Construct the partitioned runtime for ``partitions > 1``.

        Returns a :class:`repro.experiments.pdes.ParallelCloud` whose
        :meth:`run` aggregates the per-partition results into one
        :class:`RunResult` matching the serial shape.
        """
        from repro.experiments.pdes import ParallelCloud

        return ParallelCloud(
            self.spec,
            self.scheme,
            tuple(self._flows),
            seed=self.seed,
            config=self.config,
            partitions=self.partitions,
            plan=self.partition_plan,
            mode=self.pdes_mode,
            queue_factory=self.queue_factory,
            vectorized=self.vectorized,
            train_batch=self.train_batch,
        )

    def run(
        self,
        until: float,
        sample_interval: float = 1.0,
        record_queues: bool = False,
    ) -> RunResult:
        """Build and run in one step (serial or partitioned)."""
        if self.partitions > 1:
            return self.build_parallel().run(
                until=until,
                sample_interval=sample_interval,
                record_queues=record_queues,
            )
        return self.build(finalize=False).run(
            until=until,
            sample_interval=sample_interval,
            record_queues=record_queues,
        )
