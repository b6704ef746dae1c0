"""Shortest-path routing over the live adjacency.

Routes are computed with Dijkstra's algorithm over propagation delays
(with a small per-hop bias so that equal-delay paths prefer fewer hops,
and tie-breaking is deterministic by neighbor name).  The paper's
evaluation uses fixed paths, and a static scenario still computes its
tables exactly once at build time — but the network *does* reroute now:
:class:`~repro.sim.dynamics.NetworkDynamics` re-runs Dijkstra over
whatever adjacency survives a link failure (down links are simply absent
from the adjacency) and atomically swaps the resulting tables, keeping
the same deterministic tie-breaking so replays stay byte-stable.

:func:`equal_cost_next_hops` supports the ECMP/flowlet multipath mode:
given the per-node distance maps it returns every first hop that lies on
*some* shortest path, sorted by (neighbor, link name) so the candidate
order is deterministic.

:class:`PathCache` is the one route-table builder (serial topology,
rebuilds after a link event, and every PDES partition all use it): it
holds one adjacency snapshot plus the shortest-path trees computed over
it so far, and roots a tree only at nodes that have a routing *choice*.
A node with exactly one outgoing link has its first hop forced, so its
paths are read off its neighbour's tree and its whole table is one fact:
that uplink, good for whatever the neighbour reaches
(:class:`RouteTable`).  Build cost *and* forwarding state scale with the
transit routers, not with the edge routers hanging off them.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import RoutingError

__all__ = [
    "PathTree",
    "PathCache",
    "RouteTable",
    "shortest_path_tree",
    "shortest_paths",
    "reconstruct_path",
    "equal_cost_next_hops",
]

#: adjacency: node name -> sequence of (neighbor name, edge cost, link name)
Adjacency = Mapping[str, Sequence[Tuple[str, float, str]]]

#: A tiny per-hop cost added to each edge so that among equal-delay routes
#: the one with fewer hops wins deterministically.
HOP_BIAS = 1e-9

#: Absolute slack when testing two path costs for equality (ECMP).  Three
#: orders of magnitude under HOP_BIAS: float noise passes, a genuine
#: extra hop (one HOP_BIAS) never does.
ECMP_TOLERANCE = 1e-12


class PathTree(NamedTuple):
    """One single-source Dijkstra result.

    ``dist[node]`` is the path cost from the source, ``prev[node] =
    (predecessor, link_name)`` encodes the shortest-path tree and
    ``first_hop[node]`` is the name of the link the path to ``node``
    leaves the source on.  Unreachable nodes — and the source itself,
    in ``prev`` and ``first_hop`` — are absent.
    """

    dist: Dict[str, float]
    prev: Dict[str, Tuple[str, str]]
    first_hop: Dict[str, str]


class RouteTable(NamedTuple):
    """One node's forwarding state: the next hop toward ``dst`` is
    ``routes[dst]``, else ``uplink`` iff ``dst`` is in ``reach`` (and is
    not the node itself), else there is none."""

    routes: Dict[str, Any]
    uplink: Any = None
    reach: FrozenSet[str] = frozenset()


def shortest_path_tree(adjacency: Adjacency, source: str) -> PathTree:
    """Single-source Dijkstra that also records every node's first hop.

    The first hop is inherited during relaxation (a node relaxed from the
    source takes the relaxing link, any other node takes its settled
    predecessor's first hop), so ``first_hop[node]`` always equals
    ``reconstruct_path(prev, source, node)[0]`` without walking the tree
    once per destination.
    """
    if source not in adjacency:
        raise RoutingError(f"unknown source node {source!r}")
    dist: Dict[str, float] = {source: 0.0}
    prev: Dict[str, Tuple[str, str]] = {}
    first_hop: Dict[str, str] = {}
    visited = set()
    heap: List[Tuple[float, str]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        # Nothing ever relaxes the source (every candidate cost is
        # positive), so ``via`` is None exactly when ``node`` is it.
        via = first_hop.get(node)
        for neighbor, cost, link_name in adjacency.get(node, ()):
            if cost < 0:
                raise RoutingError(f"negative link cost on {link_name!r}")
            candidate = d + cost + HOP_BIAS
            best = dist.get(neighbor)
            if best is None or candidate < best - 1e-15:
                dist[neighbor] = candidate
                prev[neighbor] = (node, link_name)
                first_hop[neighbor] = link_name if via is None else via
                heapq.heappush(heap, (candidate, neighbor))
    return PathTree(dist, prev, first_hop)


def shortest_paths(
    adjacency: Adjacency, source: str
) -> Tuple[Dict[str, float], Dict[str, Tuple[str, str]]]:
    """Single-source Dijkstra.

    Returns ``(dist, prev)`` where ``dist[node]`` is the path cost from
    ``source`` and ``prev[node] = (predecessor, link_name)`` encodes the
    shortest-path tree.  Unreachable nodes are absent from both maps.
    """
    tree = shortest_path_tree(adjacency, source)
    return tree.dist, tree.prev


def reconstruct_path(
    prev: Mapping[str, Tuple[str, str]], source: str, dest: str
) -> List[str]:
    """Link names along the shortest path ``source -> dest``.

    Raises :class:`RoutingError` if ``dest`` is unreachable.
    """
    if dest == source:
        return []
    if dest not in prev:
        raise RoutingError(f"no path from {source!r} to {dest!r}")
    links: List[str] = []
    node = dest
    while node != source:
        parent, link_name = prev[node]
        links.append(link_name)
        node = parent
    links.reverse()
    return links


def equal_cost_next_hops(
    adjacency: Adjacency,
    source: str,
    dest: str,
    dist_maps: Mapping[str, Mapping[str, float]],
    tolerance: float = ECMP_TOLERANCE,
) -> Tuple[Tuple[str, str], ...]:
    """All ``(neighbor, link_name)`` first hops on a shortest path.

    ``dist_maps[node]`` must be the ``dist`` result of
    :func:`shortest_paths` rooted at ``node`` (at least for ``source``
    and every neighbor of it).  An edge ``source -> v`` is a candidate
    iff ``cost(source, v) + HOP_BIAS + dist_v[dest]`` equals
    ``dist_source[dest]`` within ``tolerance`` — i.e. the hop lies on
    *some* shortest path.  Candidates are sorted by (neighbor, link
    name), so the order is deterministic and replayable.  Returns an
    empty tuple when ``dest`` is unreachable from ``source``.
    """
    if dest == source:
        return ()
    base = dist_maps[source].get(dest)
    if base is None:
        return ()
    candidates: List[Tuple[str, str]] = []
    for neighbor, cost, link_name in adjacency.get(source, ()):
        if neighbor == dest:
            through = cost + HOP_BIAS
        else:
            neighbor_dist = dist_maps[neighbor].get(dest)
            if neighbor_dist is None:
                continue
            through = cost + HOP_BIAS + neighbor_dist
        if abs(through - base) <= tolerance:
            candidates.append((neighbor, link_name))
    candidates.sort()
    return tuple(candidates)


def _leads_only_back(adjacency: Adjacency, node: str, source: str) -> bool:
    """True when every outgoing link of ``node`` returns to ``source``.

    Any path from ``source`` through such a node re-enters ``source``, so
    (all hop costs being positive) it is on no shortest path to anything
    but itself.
    """
    return all(neighbor == source for neighbor, _cost, _link in adjacency.get(node, ()))


class PathCache:
    """Shortest-path trees over one adjacency snapshot, rooted on demand.

    A tree is rooted only where routing has a choice.  A node with
    exactly one outgoing link must leave on it, and no shortest path
    from its neighbour comes back through it (that would be a cycle of
    positive cost), so for every destination other than itself it
    reaches exactly what the neighbour reaches, over ``that link + the
    neighbour's path``.  This is exact, not a heuristic; tables and
    paths of single-link nodes are therefore read off the neighbour's
    tree, and a cloud of many edge routers around a few cores runs one
    Dijkstra per core.
    """

    def __init__(self, adjacency: Adjacency) -> None:
        self.adjacency = adjacency
        self._trees: Dict[str, PathTree] = {}

    def tree(self, node: str) -> PathTree:
        """The shortest-path tree rooted at ``node`` (computed once)."""
        tree = self._trees.get(node)
        if tree is None:
            tree = shortest_path_tree(self.adjacency, node)
            self._trees[node] = tree
        return tree

    def path(self, src: str, dst: str) -> List[str]:
        """Link names along the shortest path ``src -> dst``.

        Raises :class:`RoutingError` if ``dst`` is unreachable.
        """
        if src == dst:
            return []
        root, lead = src, []
        out = self.adjacency.get(src, ())
        if len(out) == 1:
            root, _cost, link_name = out[0]
            lead = [link_name]
            if root == dst:
                return lead
        prev = self.tree(root).prev
        if dst not in prev:
            raise RoutingError(f"no path from {src!r} to {dst!r}")
        return lead + reconstruct_path(prev, root, dst)

    def route_tables(
        self,
        sources: Iterable[str],
        destinations: Sequence[str],
        strict: bool,
        links: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, RouteTable]:
        """``{src: RouteTable}`` for every source.

        A source with several outgoing links gets ``routes``, the first
        hop per reachable destination (never ``src`` itself) in the order
        given; a source with exactly one gets no entries, only that
        ``uplink`` and its neighbour's ``reach`` set — one object shared
        by every source behind that neighbour.  With ``strict`` an
        unreachable destination raises :class:`RoutingError`; otherwise
        it is not routed, and a source without any outgoing link routes
        nothing.  A first hop is a link name, or ``links[name]`` when
        ``links`` is passed (a topology passes its link objects so the
        tables are filled once, not translated).
        """
        adjacency = self.adjacency
        resolve = (lambda name: name) if links is None else links.__getitem__
        wanted = set(destinations)
        tables: Dict[str, RouteTable] = {}
        #: Per neighbour: the destinations a single-link node behind it
        #: reaches (shared by every such node, e.g. all edges of one core).
        behind: Dict[str, FrozenSet[str]] = {}
        for src in sources:
            if src not in adjacency:
                raise RoutingError(f"unknown source node {src!r}")
            out = adjacency[src]
            if len(out) == 1:
                neighbor, _cost, link_name = out[0]
                reach = behind.get(neighbor)
                if reach is None:
                    onward = self.tree(neighbor).first_hop
                    reach = behind[neighbor] = frozenset(
                        dst for dst in destinations if dst == neighbor or dst in onward
                    )
                table = RouteTable({}, resolve(link_name), reach)
            elif out:
                first_hop = self.tree(src).first_hop
                table = RouteTable(
                    {
                        dst: resolve(first_hop[dst])
                        for dst in destinations
                        if dst in first_hop
                    }
                )
            else:
                table = RouteTable({})
            routed = len(table.routes) + len(table.reach) - (src in table.reach)
            if strict and routed != len(wanted) - (src in wanted):
                missing = next(
                    dst
                    for dst in destinations
                    if dst != src and dst not in table.routes and dst not in table.reach
                )
                raise RoutingError(f"no path from {src!r} to {missing!r}")
            tables[src] = table
        return tables

    def equal_cost_tables(
        self, tables: Mapping[str, RouteTable]
    ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """ECMP candidate link names for the explicit entries of ``tables``.

        ``{src: {dst: (link name, ...)}}`` holding only the destinations
        with two or more equal-cost first hops, candidates ordered as
        :func:`equal_cost_next_hops` orders them.
        """
        adjacency = self.adjacency
        ecmp_tables: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        for src, table in tables.items():
            ecmp: Dict[str, Tuple[str, ...]] = {}
            out = adjacency[src]
            if len(out) >= 2:
                # A dead-end neighbour is a candidate only as the
                # destination itself, which needs no distance map: offer
                # it for that one destination and root no tree at it.
                transit: List[Tuple[str, float, str]] = []
                dead_ends: Dict[str, List[Tuple[str, float, str]]] = {}
                for hop in out:
                    if _leads_only_back(adjacency, hop[0], src):
                        dead_ends.setdefault(hop[0], []).append(hop)
                    else:
                        transit.append(hop)
                dist_maps = {src: self.tree(src).dist}
                for neighbor, _cost, _link in transit:
                    dist_maps[neighbor] = self.tree(neighbor).dist
                for dst in table.routes:
                    hops = equal_cost_next_hops(
                        {src: transit + dead_ends.get(dst, [])}, src, dst, dist_maps
                    )
                    if len(hops) >= 2:
                        ecmp[dst] = tuple(link_name for _neighbor, link_name in hops)
            ecmp_tables[src] = ecmp
        return ecmp_tables
