"""Declarative topology and flow-path specifications.

This is layer 1 of the harness pipeline (spec -> builder -> runnable
cloud): plain frozen dataclasses that describe an arbitrary cloud — the
core graph with per-link capacities/delays, the access-link defaults, and
every edge-to-edge flow — without touching a simulator.  A spec is cheap
to validate, JSON-expressible (see :meth:`TopologySpec.from_dict` and the
``"topology"`` key of the scenario DSL), hashable for the batch cache,
and completely scheme-agnostic: the same :class:`TopologySpec` builds a
Corelite, CSFQ or FIFO cloud through
:class:`repro.experiments.builder.CloudBuilder`.

Canned shapes cover the workloads the fairness literature argues about:

* :meth:`TopologySpec.chain` — the paper's Figure 2 chain of cores
  (Topology 1 is ``chain(4)``);
* :meth:`TopologySpec.parking_lot` — a chain consumed by one long flow
  against per-hop cross traffic (the classic weighted max-min stressor);
* :meth:`TopologySpec.mesh` — a multi-bottleneck diamond-plus-chord mesh
  with heterogeneous link capacities;
* :meth:`TopologySpec.leaf_spine` — a 2-tier Clos fabric where every
  leaf pair has one equal-cost path per spine (ECMP by default);
* :meth:`TopologySpec.fat_tree` — the 3-tier k-ary fat tree
  (edge/aggregation pods under a core layer, ECMP by default).

A spec may also carry *dynamics*: a schedule of
:class:`~repro.sim.dynamics.NetworkEvent` link failures/recoveries
(``events``, each rerouting at its own instant), and the multipath knobs
(``routing_mode``, ``ecmp_flowlet_n_packets``).

Validation errors always name the offending field and value, so a typo in
a scenario file fails at spec time with a readable message instead of
deep inside the wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import FlowError, TopologyError
from repro.sim.dynamics import NetworkEvent
from repro.sim.sources import SourceSpec
from repro.sim.topology import ROUTING_MODES
from repro.units import ms_to_s

__all__ = [
    "LinkSpec",
    "TopologySpec",
    "FlowPathSpec",
    "FlowSpec",
    "CANNED_TOPOLOGIES",
]


@dataclass(frozen=True)
class LinkSpec:
    """One duplex core-to-core link of a topology spec.

    Attributes
    ----------
    a / b:
        Names of the two cores the link joins.  The builder creates a pair
        of symmetric unidirectional links ``a->b`` and ``b->a``.
    capacity_pps:
        Bandwidth in packets/second (> 0).
    prop_delay:
        One-way propagation delay in seconds (>= 0).
    queue_capacity:
        Optional per-link buffer override in packets; ``None`` uses the
        topology-wide default.
    """

    a: str
    b: str
    capacity_pps: float
    prop_delay: float
    queue_capacity: Optional[float] = None

    def __post_init__(self) -> None:
        for end, name in (("a", self.a), ("b", self.b)):
            if not name or not isinstance(name, str):
                raise TopologyError(
                    f"link {self.a!r}-{self.b!r}: end {end!r} must be a "
                    f"non-empty core name, got {name!r}"
                )
        if self.a == self.b:
            raise TopologyError(
                f"link {self.a!r}-{self.b!r}: self-loops are not allowed"
            )
        if not (self.capacity_pps > 0) or math.isinf(self.capacity_pps):
            raise TopologyError(
                f"link {self.a!r}-{self.b!r}: capacity_pps must be a "
                f"positive finite value, got {self.capacity_pps!r}"
            )
        if not self.prop_delay >= 0 or math.isinf(self.prop_delay):
            raise TopologyError(
                f"link {self.a!r}-{self.b!r}: prop_delay must be a "
                f"non-negative finite value, got {self.prop_delay!r}"
            )
        if self.queue_capacity is not None and not (self.queue_capacity > 0):
            raise TopologyError(
                f"link {self.a!r}-{self.b!r}: queue_capacity must be > 0, "
                f"got {self.queue_capacity!r}"
            )

    def as_row(self) -> List:
        """JSON-friendly ``[a, b, capacity_pps, prop_delay]`` rendering."""
        row: List = [self.a, self.b, self.capacity_pps, self.prop_delay]
        if self.queue_capacity is not None:
            row.append(self.queue_capacity)
        return row


@dataclass(frozen=True)
class TopologySpec:
    """A declarative, scheme-agnostic description of one cloud's graph.

    Attributes
    ----------
    links:
        Duplex core-to-core :class:`LinkSpec` entries; at least one.
    cores:
        Core names.  When empty, derived from the link endpoints in
        first-appearance order.  When given, every link endpoint must be
        listed (extra, link-less cores are allowed but unroutable).
    name:
        Human-readable topology name, quoted by validation errors.
    access_capacity_pps / access_prop_delay:
        Capacity and delay of every per-flow edge-to-core access link.
    queue_capacity:
        Default buffer size (packets) for every link without an override.
    events:
        Scheduled :class:`~repro.sim.dynamics.NetworkEvent` link
        failures/recoveries.  Each event must name an existing duplex
        link; same-timestamp events execute in declaration order.
    routing_mode:
        ``"static"`` (single shortest path, the paper's regime),
        ``"ecmp"`` (per-flow hashing over equal-cost next hops) or
        ``"ecmp_flowlet"`` (re-hash every ``ecmp_flowlet_n_packets``
        data packets).
    ecmp_flowlet_n_packets:
        Flowlet length in data packets for ``ecmp_flowlet`` mode.
    """

    links: Tuple[LinkSpec, ...]
    cores: Tuple[str, ...] = ()
    name: str = "custom"
    access_capacity_pps: float = 500.0
    access_prop_delay: float = ms_to_s(40.0)
    queue_capacity: float = 40.0
    events: Tuple[NetworkEvent, ...] = ()
    routing_mode: str = "static"
    ecmp_flowlet_n_packets: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.links, tuple):
            object.__setattr__(self, "links", tuple(self.links))
        if not isinstance(self.cores, tuple):
            object.__setattr__(self, "cores", tuple(self.cores))
        if not self.links:
            raise TopologyError(
                f"topology {self.name!r}: links must contain at least one "
                "core-to-core link"
            )
        for link in self.links:
            if not isinstance(link, LinkSpec):
                raise TopologyError(
                    f"topology {self.name!r}: links must be LinkSpec "
                    f"instances, got {type(link).__name__}"
                )
        derived: List[str] = []
        for link in self.links:
            for end in (link.a, link.b):
                if end not in derived:
                    derived.append(end)
        if not self.cores:
            object.__setattr__(self, "cores", tuple(derived))
        else:
            seen = set()
            for core in self.cores:
                if core in seen:
                    raise TopologyError(
                        f"topology {self.name!r}: duplicate core name {core!r}"
                    )
                seen.add(core)
            for link in self.links:
                for end in (link.a, link.b):
                    if end not in seen:
                        raise TopologyError(
                            f"topology {self.name!r}: link "
                            f"{link.a!r}-{link.b!r} references unknown core "
                            f"{end!r} (cores: {sorted(seen)})"
                        )
        pairs = set()
        for link in self.links:
            pair = frozenset((link.a, link.b))
            if pair in pairs:
                raise TopologyError(
                    f"topology {self.name!r}: duplicate link "
                    f"{link.a!r}-{link.b!r}"
                )
            pairs.add(pair)
        if not (self.access_capacity_pps > 0) or math.isinf(self.access_capacity_pps):
            raise TopologyError(
                f"topology {self.name!r}: access_capacity_pps must be a "
                f"positive finite value, got {self.access_capacity_pps!r}"
            )
        if not self.access_prop_delay >= 0 or math.isinf(self.access_prop_delay):
            raise TopologyError(
                f"topology {self.name!r}: access_prop_delay must be a "
                f"non-negative finite value, got {self.access_prop_delay!r}"
            )
        if not (self.queue_capacity > 0):
            raise TopologyError(
                f"topology {self.name!r}: queue_capacity must be > 0, "
                f"got {self.queue_capacity!r}"
            )
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, NetworkEvent):
                raise TopologyError(
                    f"topology {self.name!r}: events must be NetworkEvent "
                    f"instances, got {type(event).__name__}"
                )
            if frozenset((event.a, event.b)) not in pairs:
                raise TopologyError(
                    f"topology {self.name!r}: event at t={event.time:g} "
                    f"references unknown link {event.a!r}-{event.b!r}"
                )
        if self.routing_mode not in ROUTING_MODES:
            raise TopologyError(
                f"topology {self.name!r}: unknown routing_mode "
                f"{self.routing_mode!r} (known: {list(ROUTING_MODES)})"
            )
        if self.ecmp_flowlet_n_packets < 1:
            raise TopologyError(
                f"topology {self.name!r}: ecmp_flowlet_n_packets must be "
                f">= 1, got {self.ecmp_flowlet_n_packets!r}"
            )

    # -- canned shapes ---------------------------------------------------

    @classmethod
    def chain(
        cls,
        num_cores: int = 4,
        capacity_pps: float = 500.0,
        prop_delay: float = ms_to_s(40.0),
        **kwargs,
    ) -> "TopologySpec":
        """The paper's Figure 2 shape: cores ``C1..Cn`` in a chain."""
        if num_cores < 2:
            raise TopologyError(
                f"topology 'chain': num_cores must be >= 2, got {num_cores}"
            )
        names = [f"C{i}" for i in range(1, num_cores + 1)]
        links = tuple(
            LinkSpec(a, b, capacity_pps, prop_delay)
            for a, b in zip(names, names[1:])
        )
        kwargs.setdefault("name", f"chain-{num_cores}")
        return cls(links=links, cores=tuple(names), **kwargs)

    @classmethod
    def parking_lot(
        cls,
        hops: int = 3,
        capacity_pps: float = 500.0,
        prop_delay: float = ms_to_s(40.0),
        **kwargs,
    ) -> "TopologySpec":
        """A chain of ``hops`` congested links (``hops + 1`` cores).

        The parking-lot *workload* sends one long flow across every hop
        against per-hop cross traffic; see
        :func:`repro.experiments.scenarios.parking_lot_flows`.
        """
        if hops < 1:
            raise TopologyError(
                f"topology 'parking_lot': hops must be >= 1, got {hops}"
            )
        spec = cls.chain(
            num_cores=hops + 1,
            capacity_pps=capacity_pps,
            prop_delay=prop_delay,
            **{"name": f"parking-lot-{hops}", **kwargs},
        )
        return spec

    @classmethod
    def mesh(
        cls,
        capacity_pps: float = 500.0,
        prop_delay: float = ms_to_s(20.0),
        **kwargs,
    ) -> "TopologySpec":
        """A multi-bottleneck diamond-plus-chord mesh.

        Four cores ``A, B, C, D``: a fast upper path ``A-B-D`` at 1.25x
        ``capacity_pps``, a lower path ``A-C-D`` at 1.0x (and 1.5x the
        delay), and a cross chord ``B-C`` at 0.75x (1.25x the delay).
        The delay asymmetry makes every shortest-delay route strict — no
        equal-cost ties — so paths are deterministic, while flows pinned
        to different core pairs congest different links at different fair
        levels: the regime where per-link feedback must agree on a global
        weighted max-min allocation.  The capacities are chosen so the
        canned :func:`~repro.experiments.scenarios.mesh_flows` workload
        subscribes every link exactly, with all fair shares at or above
        a quarter of ``capacity_pps`` (large relative to the LIMD
        decrease step, keeping saw-tooth undershoot small).
        """
        links = (
            LinkSpec("A", "B", 1.25 * capacity_pps, prop_delay),
            LinkSpec("B", "D", 1.25 * capacity_pps, prop_delay),
            LinkSpec("A", "C", 1.0 * capacity_pps, 1.5 * prop_delay),
            LinkSpec("C", "D", 1.0 * capacity_pps, 1.5 * prop_delay),
            LinkSpec("B", "C", 0.75 * capacity_pps, 1.25 * prop_delay),
        )
        kwargs.setdefault("name", "mesh-diamond")
        return cls(links=links, cores=("A", "B", "C", "D"), **kwargs)

    @classmethod
    def leaf_spine(
        cls,
        leaves: int = 3,
        spines: int = 2,
        capacity_pps: float = 500.0,
        prop_delay: float = ms_to_s(10.0),
        **kwargs,
    ) -> "TopologySpec":
        """A 2-tier Clos fabric: every leaf connects to every spine.

        With uniform capacities and delays, each leaf pair has exactly
        ``spines`` equal-cost 2-hop paths, so the spec defaults to
        ``routing_mode="ecmp"`` — the canonical multipath workload.
        Losing one leaf-spine link leaves the fabric connected (for
        ``spines >= 2``) and funnels that leaf's traffic onto the
        surviving spines: the textbook failover scenario.
        """
        if leaves < 2:
            raise TopologyError(
                f"topology 'leaf_spine': leaves must be >= 2, got {leaves}"
            )
        if spines < 1:
            raise TopologyError(
                f"topology 'leaf_spine': spines must be >= 1, got {spines}"
            )
        links = tuple(
            LinkSpec(f"L{i}", f"S{j}", capacity_pps, prop_delay)
            for i in range(1, leaves + 1)
            for j in range(1, spines + 1)
        )
        cores = tuple(f"L{i}" for i in range(1, leaves + 1)) + tuple(
            f"S{j}" for j in range(1, spines + 1)
        )
        kwargs.setdefault("name", f"leaf-spine-{leaves}x{spines}")
        kwargs.setdefault("routing_mode", "ecmp")
        return cls(links=links, cores=cores, **kwargs)

    @classmethod
    def fat_tree(
        cls,
        k: int = 2,
        capacity_pps: float = 500.0,
        prop_delay: float = ms_to_s(10.0),
        **kwargs,
    ) -> "TopologySpec":
        """The 3-tier k-ary fat tree (k even): ``k`` pods of ``k/2``
        edge + ``k/2`` aggregation switches under ``(k/2)^2`` cores.

        Pod ``p`` has edges ``P{p}E{i}`` and aggregations ``P{p}A{j}``
        (full bipartite within the pod); aggregation ``j`` of every pod
        connects to cores ``C{(j-1)*k/2+1} .. C{j*k/2}``.  Flow
        endpoints attach to the edge switches.  Uniform capacities give
        inter-pod edge pairs ``(k/2)^2`` equal-cost paths, so the spec
        defaults to ``routing_mode="ecmp"``.
        """
        if k < 2 or k % 2 != 0:
            raise TopologyError(
                f"topology 'fat_tree': k must be an even integer >= 2, got {k}"
            )
        half = k // 2
        links: List[LinkSpec] = []
        cores: List[str] = []
        for p in range(1, k + 1):
            cores.extend(f"P{p}E{i}" for i in range(1, half + 1))
            cores.extend(f"P{p}A{j}" for j in range(1, half + 1))
            links.extend(
                LinkSpec(f"P{p}E{i}", f"P{p}A{j}", capacity_pps, prop_delay)
                for i in range(1, half + 1)
                for j in range(1, half + 1)
            )
        cores.extend(f"C{c}" for c in range(1, half * half + 1))
        links.extend(
            LinkSpec(f"P{p}A{j}", f"C{c}", capacity_pps, prop_delay)
            for p in range(1, k + 1)
            for j in range(1, half + 1)
            for c in range((j - 1) * half + 1, j * half + 1)
        )
        kwargs.setdefault("name", f"fat-tree-{k}")
        kwargs.setdefault("routing_mode", "ecmp")
        return cls(links=tuple(links), cores=tuple(cores), **kwargs)

    # -- JSON round trip -------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TopologySpec":
        """Build a spec from the JSON shape :meth:`to_dict` renders: the
        scenario DSL's ``"topology"`` section, read by its one typed
        reader (:func:`repro.experiments.scenario_dsl.parse_topology`)."""
        from repro.experiments.scenario_dsl import parse_topology

        return parse_topology(raw)

    def to_dict(self) -> Dict:
        """Render as the JSON shape :meth:`from_dict` accepts."""
        raw = {
            "kind": "custom",
            "name": self.name,
            "cores": list(self.cores),
            "links": [link.as_row() for link in self.links],
            "access_capacity_pps": self.access_capacity_pps,
            "access_prop_delay": self.access_prop_delay,
            "queue_capacity": self.queue_capacity,
        }
        if self.events:
            raw["events"] = [event.to_dict() for event in self.events]
        if self.routing_mode != "static":
            raw["routing_mode"] = self.routing_mode
            raw["ecmp_flowlet_n_packets"] = self.ecmp_flowlet_n_packets
        return raw

    # -- queries ---------------------------------------------------------

    @property
    def core_names(self) -> Tuple[str, ...]:
        return self.cores

    def require_core(self, core: str, context: str) -> None:
        """Raise a :class:`TopologyError` naming ``context`` if ``core`` is
        not one of this topology's cores."""
        if core not in self.cores:
            raise TopologyError(
                f"{context}: {core!r} is not a core of topology "
                f"{self.name!r} (cores: {sorted(self.cores)})"
            )

    def partition_plan(
        self, num_partitions: int, assignments: Optional[Dict[str, int]] = None
    ):
        """A :class:`~repro.experiments.partition.PartitionPlan` for this
        topology: automatic (delay-clustered, balanced) by default, or
        pinned by an explicit ``{core: partition}`` mapping — the manual
        override used by tests and hand-tuned layouts."""
        from repro.experiments.partition import PartitionPlan, auto_partition

        if assignments is not None:
            plan = PartitionPlan.from_mapping(assignments)
            if plan.num_partitions != num_partitions:
                raise TopologyError(
                    f"topology {self.name!r}: explicit assignments use "
                    f"{plan.num_partitions} partitions, expected {num_partitions}"
                )
            plan.validate_for(self)
            return plan
        return auto_partition(self, num_partitions)


#: Canned topology kinds accepted by ``TopologySpec.from_dict``.
CANNED_TOPOLOGIES = {
    "chain": TopologySpec.chain,
    "parking_lot": TopologySpec.parking_lot,
    "mesh": TopologySpec.mesh,
    "leaf_spine": TopologySpec.leaf_spine,
    "fat_tree": TopologySpec.fat_tree,
}


@dataclass(frozen=True)
class FlowPathSpec:
    """One edge-to-edge flow in a spec-built network.

    Attributes
    ----------
    flow_id:
        Unique integer id (the paper numbers flows 1..20).
    weight:
        Rate weight ``w(f)``.
    ingress_core / egress_core:
        Core names the flow's edges attach to.  Defaults suit a 2-core
        (single-bottleneck) chain; on other topologies name the cores
        explicitly.  The route between them is shortest-propagation-delay.
    schedule:
        On/off periods as ``(start, stop)`` pairs; default "always on".
    min_rate:
        Optional minimum rate contract (Corelite only).
    source:
        Traffic model (:mod:`repro.sim.sources`); ``None`` means the
        paper's always-backlogged source.  Poisson / ON-OFF sources feed
        the edge shaper's backlog, so a flow can be demand-limited.
    transport:
        ``"shaped"`` (default): the edge generates the paced traffic, as
        in the paper's §4.  ``"tcp"`` (Corelite only): a Reno TCP
        sender/receiver host pair is attached through the edges; the
        ingress edge shapes and polices the TCP stream to ``bg(f)``
        (the §4.4/§6 edge-host interaction).
    aggregate:
        Member count of a same-(path, weight) flow bucket.  ``N > 1``
        makes this spec stand for N identical always-backlogged member
        flows carried by a *single* network flow whose weight is
        ``N * weight`` and whose access links get N times the capacity;
        the ingress controller's gains scale so the bucket tracks the sum
        of N individual flows (see
        :class:`repro.core.adaptation.RateController`).  This is how
        scenarios scale by bucket count instead of object count.
        ``weight``/``min_rate`` stay *per member*.  A bucket is
        backlogged: it takes no finite ``source`` and no TCP transport,
        and its members carry no identity of their own (the paper's unit
        of fairness is the edge-to-edge flow).
    """

    flow_id: int
    weight: float = 1.0
    ingress_core: str = "C1"
    egress_core: str = "C2"
    schedule: Tuple[Tuple[float, float], ...] = ((0.0, math.inf),)
    min_rate: float = 0.0
    source: Optional[SourceSpec] = None
    transport: str = "shaped"
    aggregate: int = 1

    def __post_init__(self) -> None:
        # NaN-safe comparisons: a NaN weight or rate fails every one.
        if not 0 < self.weight < math.inf:
            raise FlowError(
                f"flow {self.flow_id}: weight must be finite and > 0, got {self.weight}"
            )
        if not 0 <= self.min_rate < math.inf:
            raise FlowError(
                f"flow {self.flow_id}: min_rate must be finite and >= 0, "
                f"got {self.min_rate}"
            )
        if self.ingress_core == self.egress_core:
            raise FlowError(
                f"flow {self.flow_id}: ingress and egress core must differ "
                f"(both are {self.ingress_core!r})"
            )
        previous_stop = 0.0
        for start, stop in self.schedule:
            # Finite starts, in time order, disjoint: the flow stops at each
            # period's end, so an overlapping period would count it active
            # (``FlowRecord.active_at``) while it sends nothing.
            if not previous_stop <= start < math.inf or not stop > start:
                raise FlowError(
                    f"flow {self.flow_id}: bad schedule period ({start}, {stop}); "
                    "periods need a finite start >= 0 and stop > start, in "
                    "time order, not overlapping"
                )
            previous_stop = stop
        if self.transport not in ("shaped", "tcp"):
            raise FlowError(
                f"flow {self.flow_id}: unknown transport {self.transport!r} "
                "(expected 'shaped' or 'tcp')"
            )
        if self.transport == "tcp" and self.source is not None:
            raise FlowError(
                f"flow {self.flow_id}: a TCP flow's traffic comes from its "
                "sender host, not a source model"
            )
        if type(self.aggregate) is not int or self.aggregate < 1:
            raise FlowError(
                f"flow {self.flow_id}: aggregate must be a positive integer, "
                f"got {self.aggregate!r}"
            )
        if self.aggregate > 1 and not self.backlogged:
            raise FlowError(
                f"flow {self.flow_id}: an aggregate bucket is backlogged, so it "
                "takes no TCP transport or finite source"
            )

    @property
    def backlogged(self) -> bool:
        """Whether the flow uses the paper's always-backlogged source."""
        if self.transport == "tcp":
            return False
        return self.source is None or self.source.is_backlogged

    @property
    def network_weight(self) -> float:
        """The weight of the flow *as the network sees it*.

        For an aggregate bucket that is ``N * weight`` — the bucket
        competes for N members' worth of share.  (``N=1`` multiplies by
        exactly 1, a float identity.)
        """
        return self.weight * self.aggregate

    @property
    def network_min_rate(self) -> float:
        """Bucket-total minimum rate contract (member min_rate x N)."""
        return self.min_rate * self.aggregate

    @property
    def ingress_edge(self) -> str:
        return f"Ein{self.flow_id}"

    @property
    def egress_edge(self) -> str:
        return f"Eout{self.flow_id}"

    @property
    def sender_host(self) -> str:
        return f"Hs{self.flow_id}"

    @property
    def receiver_host(self) -> str:
        return f"Hr{self.flow_id}"

    def demand(self) -> float:
        """Mean offered load capping the flow's expected allocation."""
        if self.source is not None:
            return self.source.offered_rate()
        return math.inf


#: Historical name, kept as the public alias: most call sites say
#: ``FlowSpec``; the declarative pipeline documentation says
#: ``FlowPathSpec``.  They are the same class.
FlowSpec = FlowPathSpec
