"""Topology container and route computation.

A :class:`Topology` owns the nodes and links of one network cloud, builds
forwarding tables on every router and answers propagation-delay queries
for the control plane (feedback packets travel back to the edge at
reverse-path propagation speed; see DESIGN.md §3).

Dynamic routing contract: the adjacency only ever contains links that
are currently up, :meth:`Topology.build_routes` performs the strict
initial build (every declared destination must be reachable from every
router), and :meth:`Topology.rebuild_routes` recomputes all tables
against the live adjacency with an *atomic swap* — each router's state
(its table, or for a single-uplink router its uplink and reach set) is
replaced wholesale via :meth:`~repro.sim.node.Router.install_routes`,
never mutated entry by entry, so no packet forwards over a half-updated
table.  Rebuilds are lenient: destinations a failure made unreachable
are simply absent from the new tables (the routers' ``drop_unrouted``
mode turns the resulting table misses into counted drops).

``routing_mode`` selects single-path forwarding (``"static"``, the
paper's regime) or equal-cost multipath (``"ecmp"`` /
``"ecmp_flowlet"``), in which case each rebuild also installs the
per-destination candidate sets from
:func:`repro.sim.routing.equal_cost_next_hops`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.sim.engine import Simulator
from repro.sim.link import BoundaryLink, Link
from repro.sim.node import Node, Router
from repro.sim.queues import DropTailQueue, FifoQueue
from repro.sim.routing import PathCache

ROUTING_MODES = ("static", "ecmp", "ecmp_flowlet")

__all__ = ["Topology"]

QueueFactory = Callable[[], FifoQueue]


def _default_queue_factory() -> FifoQueue:
    """The paper's default buffer: 40-packet drop-tail FIFO."""
    return DropTailQueue(capacity=40)


class Topology:
    """Nodes + links + static routes for a single network cloud."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._routes_built = False
        #: The adjacency snapshot path queries are answered over, with the
        #: shortest-path trees computed on it so far.  Taken at every route
        #: (re)build, so queries always agree with the installed tables.
        self._paths: Optional[PathCache] = None
        #: Destination names the tables cover (remembered for rebuilds).
        self._destinations: List[str] = []
        self.routing_mode = "static"
        #: Data packets per flowlet in ``ecmp_flowlet`` mode (0 = per-flow).
        self.flowlet_packets = 0

    # -- construction ---------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node``; names must be unique."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._invalidate()
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        bandwidth_pps: float,
        prop_delay: float,
        queue_factory: QueueFactory = _default_queue_factory,
        name: str = "",
    ) -> Link:
        """Add a unidirectional link from node ``src`` to node ``dst``."""
        if src not in self.nodes:
            raise TopologyError(f"unknown source node {src!r}")
        if dst not in self.nodes:
            raise TopologyError(f"unknown destination node {dst!r}")
        if src == dst:
            raise TopologyError(f"self-loop on {src!r}")
        if not bandwidth_pps > 0:
            raise TopologyError(
                f"link {src!r}->{dst!r}: bandwidth_pps must be positive, "
                f"got {bandwidth_pps!r}"
            )
        if not prop_delay >= 0:
            raise TopologyError(
                f"link {src!r}->{dst!r}: prop_delay must be >= 0, got {prop_delay!r}"
            )
        link_name = name or f"{src}->{dst}"
        if link_name in self.links:
            raise TopologyError(f"duplicate link name {link_name!r}")
        link = Link(
            self.sim,
            link_name,
            src_name=src,
            dst=self.nodes[dst],
            bandwidth_pps=bandwidth_pps,
            prop_delay=prop_delay,
            queue=queue_factory(),
        )
        self.links[link_name] = link
        self._invalidate()
        return link

    def add_boundary_link(
        self,
        src: str,
        dst_name: str,
        bandwidth_pps: float,
        prop_delay: float,
        queue_factory: QueueFactory,
        emit: Callable[[float, "object"], None],
    ) -> BoundaryLink:
        """Add the local half of a cut link whose far end is remote.

        ``src`` must be a local node; ``dst_name`` names a node owned by
        another partition, so only its name is recorded (no local object
        exists).  Transmitted packets are handed to ``emit(deliver_time,
        packet)`` for cross-partition delivery instead of a local event.
        The link is registered under the same ``src->dst`` name the
        serial build would use, so forwarding tables computed over the
        global shadow graph resolve to it by name.
        """
        if src not in self.nodes:
            raise TopologyError(f"unknown source node {src!r}")
        if dst_name in self.nodes:
            raise TopologyError(
                f"boundary link {src!r}->{dst_name!r}: destination is a "
                "local node; use add_link for intra-partition links"
            )
        link_name = f"{src}->{dst_name}"
        if link_name in self.links:
            raise TopologyError(f"duplicate link name {link_name!r}")
        link = BoundaryLink(
            self.sim,
            link_name,
            src_name=src,
            dst_name=dst_name,
            bandwidth_pps=bandwidth_pps,
            prop_delay=prop_delay,
            queue=queue_factory(),
            emit=emit,
        )
        self.links[link_name] = link
        self._invalidate()
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        bandwidth_pps: float,
        prop_delay: float,
        queue_factory: QueueFactory = _default_queue_factory,
    ) -> Tuple[Link, Link]:
        """Add a pair of symmetric unidirectional links ``a<->b``."""
        forward = self.add_link(a, b, bandwidth_pps, prop_delay, queue_factory)
        backward = self.add_link(b, a, bandwidth_pps, prop_delay, queue_factory)
        return forward, backward

    def _invalidate(self) -> None:
        self._routes_built = False
        self._paths = None

    # -- routing ----------------------------------------------------------

    def set_routing(self, mode: str, flowlet_packets: int = 0) -> None:
        """Select the routing mode before :meth:`build_routes` runs."""
        if mode not in ROUTING_MODES:
            raise TopologyError(
                f"unknown routing mode {mode!r} (known: {list(ROUTING_MODES)})"
            )
        if flowlet_packets < 0:
            raise TopologyError(
                f"flowlet_packets must be >= 0, got {flowlet_packets!r}"
            )
        self.routing_mode = mode
        self.flowlet_packets = flowlet_packets

    def _adjacency(self) -> Dict[str, List[Tuple[str, float, str]]]:
        adjacency: Dict[str, List[Tuple[str, float, str]]] = {
            name: [] for name in self.nodes
        }
        for link in self.links.values():
            if not link.up:
                continue  # failed links are invisible to routing
            adjacency[link.src_name].append((link.dst.name, link.prop_delay, link.name))
        for neighbors in adjacency.values():
            neighbors.sort()  # deterministic tie-breaking
        return adjacency

    def build_routes(self, destinations: Iterable[str] = ()) -> None:
        """Fill every router's forwarding table (strict initial build).

        ``destinations`` restricts the table to the given node names (edge
        routers); by default every node is a potential destination.  Every
        destination must be reachable from every router — a disconnected
        initial topology is a configuration error, not a runtime drop.
        """
        dest_names = list(destinations) or list(self.nodes)
        for dst_name in dest_names:
            if dst_name not in self.nodes:
                raise TopologyError(f"unknown destination {dst_name!r}")
        self._destinations = dest_names
        self._install_live_routes(strict=True)
        self._routes_built = True

    def rebuild_routes(self) -> None:
        """Recompute every table against the live adjacency (atomic swap).

        Called by the dynamics layer after a link fails or recovers.
        Lenient: destinations that became unreachable are dropped from
        the new tables instead of raising.  Each router's table is
        replaced in one assignment, and the same deterministic
        tie-breaking as the initial build keeps replays byte-stable.
        """
        if not self._routes_built:
            raise TopologyError("rebuild_routes() before build_routes()")
        self._install_live_routes(strict=False)

    def _install_live_routes(self, strict: bool) -> None:
        self._paths = None  # fresh snapshot of the live adjacency
        self.install_routes_over(self._path_cache(), self._destinations, strict)

    def install_routes_over(
        self, paths: PathCache, dest_names: Sequence[str], strict: bool
    ) -> None:
        """Build every router's forwarding state over ``paths`` and swap it in.

        ``paths`` is a snapshot of this topology's own live adjacency for
        a serial cloud; a PDES partition passes the global shadow graph's
        instead.  A router's first hop is always one of its own links, so
        the names resolve here either way.
        """
        routers = [
            name for name, node in self.nodes.items() if isinstance(node, Router)
        ]
        links = self.links
        tables = paths.route_tables(routers, dest_names, strict, links=links)
        if self.routing_mode == "static":
            for src_name, table in tables.items():
                self.nodes[src_name].install_routes(*table)
            return
        flowlet = self.flowlet_packets if self.routing_mode == "ecmp_flowlet" else 0
        for src_name, ecmp in paths.equal_cost_tables(tables).items():
            table = tables[src_name]
            self.nodes[src_name].install_multipath_routes(
                table.routes,
                {
                    dst_name: tuple(links[link_name] for link_name in candidates)
                    for dst_name, candidates in ecmp.items()
                },
                flowlet,
                table.uplink,
                table.reach,
            )

    def _path_cache(self) -> PathCache:
        if self._paths is None:
            self._paths = PathCache(self._adjacency())
        return self._paths

    def path_links(self, src: str, dst: str) -> List[Link]:
        """Links along the shortest path ``src -> dst``."""
        if src not in self.nodes:
            raise TopologyError(f"unknown node {src!r}")
        return [self.links[name] for name in self._path_cache().path(src, dst)]

    def path_delay(self, src: str, dst: str) -> float:
        """Total propagation delay along the shortest path ``src -> dst``."""
        return sum(link.prop_delay for link in self.path_links(src, dst))

    def path_nodes(self, src: str, dst: str) -> List[str]:
        """Node names visited by the shortest path, endpoints included."""
        names = [src]
        names.extend(link.dst.name for link in self.path_links(src, dst))
        return names

    # -- stats ---------------------------------------------------------

    def route_entries(self) -> int:
        """``destination -> link`` entries stored over all routers — the
        forwarding twin of ``flow_state_entries()``.  A single-uplink
        router adds none: its reach set is its neighbour's, shared."""
        routers = (n for n in self.nodes.values() if isinstance(n, Router))
        return sum(len(router._routes) for router in routers)

    def total_drops(self) -> int:
        """Data packets dropped anywhere in the network so far.

        Queue drops plus (in dynamics scenarios) packets refused by or
        stranded on failed links and packets that hit a routing black
        hole after a partition.  Static runs only ever see queue drops.
        """
        total = 0
        for link in self.links.values():
            total += link.queue.stats.dropped_data
            total += link.failure_drops + link.inflight_drops
        for node in self.nodes.values():
            if isinstance(node, Router):
                total += node.unrouted_drops
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(nodes={len(self.nodes)}, links={len(self.links)})"
