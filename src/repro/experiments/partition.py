"""Topology partitioning for conservative parallel simulation.

A :class:`PartitionPlan` maps every core router of a
:class:`~repro.experiments.topospec.TopologySpec` to one of N partitions;
each partition becomes its own :class:`~repro.sim.engine.Simulator`
advancing under the conservative time-window protocol (see
:mod:`repro.experiments.pdes`).  Edge routers and access links follow
their core: a flow's ingress edge lives wherever its ingress core lives.

The window of a plan is the minimum propagation delay over its *cut
links* (spec links whose endpoints land in different partitions): any
packet crossing the cut is in flight for at least that long, so a
partition that has executed everything up to the window boundary can
never receive a message from its past — the classic conservative
lookahead argument, with link propagation delay as the lookahead.

:func:`auto_partition` builds a plan by single-linkage clustering:
merge the *shortest*-delay links first (under a balance cap), so the
links left spanning the cut are the longest-delay ones — maximizing the
window, which directly sets the barrier frequency and therefore the
synchronization overhead.

:class:`ShadowGraph` is the other half of the story: every partition
needs *global* knowledge — routes, control-plane delays, admission —
computed over the whole topology even though it only builds its own
slice.  The shadow graph is that whole-topology view (cores, every
flow's edges, all links with their delays and capacities), built
identically in every partition from the same spec, so all partitions
agree on every route and delay without exchanging a byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError, RoutingError, TopologyError
from repro.sim.routing import PathCache

__all__ = [
    "PartitionPlan",
    "auto_partition",
    "ShadowGraph",
    "channel_delay_matrix",
    "lookahead_closure",
]


def channel_delay_matrix(
    num_partitions: int,
    channels: Sequence[Tuple[int, int, float]],
) -> List[List[float]]:
    """Minimum message delay per ordered partition pair.

    ``channels`` enumerates every way one partition can put an event on
    another's event heap — a directed cut link carrying data traffic, or a
    control channel (feedback / loss-notify) whose delivery is computed
    as a shadow-path delay.  The matrix entry ``D[i][j]`` is the minimum
    over all channels from ``i`` to ``j`` (``inf`` when no channel
    exists): if partition ``i`` has executed everything strictly before
    time ``t``, nothing it emits can reach ``j`` before ``t + D[i][j]``.

    A non-positive channel delay offers no lookahead at all, so it is an
    error — same contract as :meth:`PartitionPlan.window`.
    """
    inf = math.inf
    matrix = [[inf] * num_partitions for _ in range(num_partitions)]
    for src, dst, delay in channels:
        if delay <= 0.0:
            raise ConfigurationError(
                f"cross-partition channel {src}->{dst} has non-positive "
                f"delay {delay}: no conservative lookahead exists across it"
            )
        if src == dst:
            continue
        if delay < matrix[src][dst]:
            matrix[src][dst] = delay
    return matrix


def lookahead_closure(matrix: Sequence[Sequence[float]]) -> List[List[float]]:
    """Minimum delay of any *multi-hop* influence path between partitions.

    Floyd–Warshall over the channel-delay matrix **without** zeroing the
    diagonal: the result is the minimum total delay over all walks of at
    least one channel, so ``closure[i][j]`` bounds how soon an event in
    partition ``i`` can cause one in ``j`` even through intermediate
    partitions, and ``closure[i][i]`` is the minimum cycle through ``i``
    (how soon a partition can hear back its own echo).  All channel
    delays are positive (checked by :func:`channel_delay_matrix`), so
    walks cannot undercut their own prefixes and the triple loop
    converges to the true walk minimum.
    """
    n = len(matrix)
    dist = [list(row) for row in matrix]
    inf = math.inf
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == inf:
                continue
            row_i = dist[i]
            for j in range(n):
                alt = d_ik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


@dataclass(frozen=True)
class PartitionPlan:
    """An assignment of every core router to one of ``num_partitions``.

    ``assignments`` holds ``(core_name, partition_index)`` pairs in the
    spec's core order.  Indices must be exactly ``0..num_partitions-1``
    with every partition non-empty — an empty partition would be a
    worker with nothing to simulate, which is always a planning bug.
    """

    assignments: Tuple[Tuple[str, int], ...]
    num_partitions: int

    def __post_init__(self) -> None:
        index: Dict[str, int] = {}
        seen: set = set()
        for core, part in self.assignments:
            if core in index:
                raise ConfigurationError(
                    f"partition plan assigns core {core!r} twice"
                )
            if not 0 <= part < self.num_partitions:
                raise ConfigurationError(
                    f"partition plan: core {core!r} assigned to partition "
                    f"{part}, outside 0..{self.num_partitions - 1}"
                )
            index[core] = part
            seen.add(part)
        if len(seen) != self.num_partitions:
            missing = sorted(set(range(self.num_partitions)) - seen)
            raise ConfigurationError(
                f"partition plan leaves partition(s) {missing} empty"
            )
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "PartitionPlan":
        """Build a plan from a ``{core: partition_index}`` dict (the
        manual-override path for tests and hand-tuned layouts)."""
        if not mapping:
            raise ConfigurationError("partition plan mapping is empty")
        return cls(
            tuple((core, int(part)) for core, part in mapping.items()),
            max(int(part) for part in mapping.values()) + 1,
        )

    # -- queries ---------------------------------------------------------

    def partition_of(self, core: str) -> int:
        try:
            return self._index[core]  # type: ignore[attr-defined]
        except KeyError:
            raise TopologyError(
                f"core {core!r} is not covered by this partition plan"
            ) from None

    def cores_of(self, partition: int) -> Tuple[str, ...]:
        return tuple(
            core for core, part in self.assignments if part == partition
        )

    def validate_for(self, spec) -> None:
        """Check the plan covers exactly the spec's cores."""
        plan_cores = {core for core, _part in self.assignments}
        spec_cores = set(spec.cores)
        if plan_cores != spec_cores:
            extra = sorted(plan_cores - spec_cores)
            missing = sorted(spec_cores - plan_cores)
            raise ConfigurationError(
                f"partition plan does not match topology {spec.name!r}: "
                f"missing cores {missing}, unknown cores {extra}"
            )

    def cut_links(self, spec) -> Tuple:
        """The spec links whose endpoints land in different partitions."""
        return tuple(
            link
            for link in spec.links
            if self.partition_of(link.a) != self.partition_of(link.b)
        )

    def window(self, spec) -> float:
        """Conservative window: minimum propagation delay over the cut.

        ``inf`` when no link crosses the cut (fully independent
        partitions — a single barrier at the horizon suffices).  A
        zero-delay cut link is an error: it provides no lookahead, so no
        positive window exists.
        """
        cut = self.cut_links(spec)
        if not cut:
            return math.inf
        window = min(link.prop_delay for link in cut)
        if window <= 0.0:
            zero = [
                f"{link.a}-{link.b}" for link in cut if link.prop_delay <= 0.0
            ]
            raise ConfigurationError(
                f"partition plan cuts zero-delay link(s) {zero}: no "
                "conservative lookahead exists across them — assign both "
                "endpoints to one partition"
            )
        return window

    # -- JSON ------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "num_partitions": self.num_partitions,
            "assignments": {core: part for core, part in self.assignments},
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "PartitionPlan":
        try:
            assignments = raw["assignments"]
        except KeyError:
            raise ConfigurationError(
                "partition plan dict needs an 'assignments' mapping"
            ) from None
        plan = cls.from_mapping(dict(assignments))
        declared = raw.get("num_partitions")
        if declared is not None and int(declared) != plan.num_partitions:
            raise ConfigurationError(
                f"partition plan declares {declared} partitions but its "
                f"assignments use {plan.num_partitions}"
            )
        return plan


def auto_partition(spec, num_partitions: int) -> PartitionPlan:
    """Cluster the spec's cores into ``num_partitions`` balanced domains.

    Single-linkage agglomeration: links are merged shortest propagation
    delay first (deterministic ties via ``(prop_delay, a, b)``), each
    merge respecting a ``ceil(n / N)`` component-size cap so partitions
    stay balanced; if the cap strands the clustering above N components,
    a second uncapped pass finishes the job.  The links left crossing
    the cut are thereby the longest-delay ones, which maximizes the
    conservative window.  Partition indices follow first appearance in
    the spec's core order, so plans are stable across runs.
    """
    cores = list(spec.cores)
    n = len(cores)
    if not 1 <= num_partitions <= n:
        raise ConfigurationError(
            f"cannot split topology {spec.name!r} ({n} cores) into "
            f"{num_partitions} partitions"
        )
    parent = {core: core for core in cores}
    size = {core: 1 for core in cores}

    def find(core: str) -> str:
        root = core
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    components = n
    cap = math.ceil(n / num_partitions)
    ordered = sorted(spec.links, key=lambda link: (link.prop_delay, link.a, link.b))
    for respect_cap in (True, False):
        for link in ordered:
            if components <= num_partitions:
                break
            ra, rb = find(link.a), find(link.b)
            if ra == rb:
                continue
            if respect_cap and size[ra] + size[rb] > cap:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            components -= 1
    if components > num_partitions:
        raise ConfigurationError(
            f"topology {spec.name!r} has {components} connected components; "
            f"cannot form {num_partitions} partitions"
        )
    index_of_root: Dict[str, int] = {}
    assignments: List[Tuple[str, int]] = []
    for core in cores:
        root = find(core)
        if root not in index_of_root:
            index_of_root[root] = len(index_of_root)
        assignments.append((core, index_of_root[root]))
    return PartitionPlan(tuple(assignments), num_partitions)


class ShadowGraph:
    """The whole-topology view every partition computes routes against.

    Holds the global adjacency (both directions of every spec link plus
    every flow's access links, remote or not), per-link-name capacities
    and propagation delays, and the :class:`~repro.sim.routing.PathCache`
    over that adjacency (``paths``) that local route tables are built
    from and path queries are answered by.  Built purely
    from the spec and the full flow list, it is bitwise-identical across
    partitions and processes — which is what makes partition-local route
    installation, control-plane delays and admission control agree with
    the serial build without any coordination.

    Adjacency entries are ``(neighbor, prop_delay, link_name)`` sorted
    exactly as :meth:`repro.sim.topology.Topology._adjacency` sorts its
    live links, so the cache produces the same trees (and the same
    deterministic tie-breaks) as the serial route build.
    """

    def __init__(self, spec, flows: Sequence) -> None:
        adjacency: Dict[str, List[Tuple[str, float, str]]] = {}
        capacities: Dict[str, float] = {}
        delays: Dict[str, float] = {}

        def add(a: str, b: str, capacity: float, delay: float) -> None:
            name = f"{a}->{b}"
            adjacency.setdefault(a, []).append((b, delay, name))
            adjacency.setdefault(b, [])
            capacities[name] = capacity
            delays[name] = delay

        for core in spec.cores:
            adjacency.setdefault(core, [])
        for link in spec.links:
            add(link.a, link.b, link.capacity_pps, link.prop_delay)
            add(link.b, link.a, link.capacity_pps, link.prop_delay)
        for flow in flows:
            access = spec.access_capacity_pps * flow.aggregate
            prop = spec.access_prop_delay
            add(flow.ingress_edge, flow.ingress_core, access, prop)
            add(flow.ingress_core, flow.ingress_edge, access, prop)
            add(flow.egress_core, flow.egress_edge, access, prop)
            add(flow.egress_edge, flow.egress_core, access, prop)
        for neighbors in adjacency.values():
            neighbors.sort()
        self.adjacency = adjacency
        self.capacities = capacities
        self.delays = delays
        self.paths = PathCache(adjacency)

    def require_routable(self, flows: Sequence, topology_name: str) -> None:
        """Fail, naming the flow, if any flow has no ingress-to-egress path."""
        for flow in flows:
            try:  # noqa: PERF203 -- cold path; the per-flow error context is the point
                self.path_link_names(flow.ingress_edge, flow.egress_edge)
            except RoutingError as exc:
                raise TopologyError(
                    f"flow {flow.flow_id}: no route from ingress_core "
                    f"{flow.ingress_core!r} to egress_core "
                    f"{flow.egress_core!r} in topology {topology_name!r} "
                    f"({exc})"
                ) from exc

    def path_link_names(self, src: str, dst: str) -> Tuple[str, ...]:
        if src not in self.adjacency:
            raise TopologyError(f"unknown shadow node {src!r}")
        return tuple(self.paths.path(src, dst))

    def path_delay(self, src: str, dst: str) -> float:
        """Sum of propagation delays along the shortest path (the pure
        delay, without the hop-count bias the distance metric carries)."""
        delays = self.delays
        return sum(delays[name] for name in self.path_link_names(src, dst))
