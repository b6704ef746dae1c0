"""Nodes and routers.

A :class:`Node` is anything that can receive packets from a link.  A
:class:`Router` additionally owns forwarding state mapping *destination
edge router names* to output links; it is filled in by
:meth:`repro.sim.topology.Topology.build_routes` and atomically replaced
by :meth:`repro.sim.topology.Topology.rebuild_routes` when the topology
changes mid-run.

Only a router with a routing *choice* holds a table.  One with a single
live out-link (every edge router, every host) holds that uplink and a
``reach`` set — the destinations its neighbour delivers to, one frozenset
shared by all routers behind that neighbour — so forwarding state grows
with transit routers x destinations.  ``reach`` is exact, not a bare
default route: a packet for an unreachable destination still dies (and
is counted) at this router, as it would against a full table.

Core routers in both Corelite and CSFQ subclass :class:`Router`: the paper's
"simple forwarding behavior" is exactly this class, and the per-scheme
mechanisms hook in around it (marker observation for Corelite, per-packet
drop decisions for CSFQ) without any per-flow forwarding state.

Multipath
---------
Under the ``ecmp``/``ecmp_flowlet`` routing modes a router additionally
holds, per destination, the tuple of equal-cost next-hop links.  Packet
spraying hashes ``(flow_id, flowlet_index, router salt)`` with a fixed
integer mixer (never Python's randomized string ``hash``) onto the
candidate list, so replays are byte-identical and all packets of one
flowlet stay on one path.  Plain ECMP is the degenerate case where the
flowlet index never advances; flowlet mode advances it every
``flowlet_packets`` *data* packets (markers ride whatever flowlet the
data stream is on, so the machinery that observes them sits on the path
the data actually takes).  The flowlet counters survive route rebuilds:
a reroute changes the candidate sets, not the spraying state.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import RoutingError
from repro.sim.packet import Packet

__all__ = ["Node", "Router"]


def _ecmp_index(flow_id: int, flowlet: int, salt: int, n: int) -> int:
    """Deterministic spray: mix the ids and reduce onto ``n`` candidates.

    A murmur3-style finalizer so that small sequential flow ids (the
    repo numbers flows 1, 2, 3, ...) still land evenly across next
    hops; Python's built-in ``hash`` is never used (it is randomized
    per process, which would break cross-run replay).
    """
    x = (flow_id * 0x9E3779B1 + flowlet * 0x85EBCA77 + salt) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 13
    x = (x * 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    return x % n


class Node:
    """Anything attachable to a link's receiving end."""

    #: True declares that receiving a packet addressed to this node sends
    #: and schedules nothing: the in-link the plan names books those in
    #: ``inbox`` (:mod:`repro.sim.link`, "Sinks"), the node settles it before
    #: that state is read, and ``receive`` takes the instant as ``at``.
    quiet_sink = False
    #: If set, ``quiet_for(packet)`` — asked by the feeding link per packet it
    #: hands over — vouches which deliveries are quiet; else all of them are.
    quiet_for: Optional[Callable[[Packet], bool]] = None
    inbox = None

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, packet: Packet, link: "Link") -> None:
        """Handle a packet delivered by ``link``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Router(Node):
    """A node with next-hop forwarding state: a table, or one uplink."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._routes: Dict[str, "Link"] = {}
        #: Single-uplink form: every destination in ``_reach`` (other
        #: than this router) without an explicit entry leaves on ``_uplink``.
        self._uplink: Optional["Link"] = None
        self._reach: FrozenSet[str] = frozenset()
        #: destination -> equal-cost next-hop links (only len >= 2 entries).
        self._ecmp_routes: Dict[str, Tuple["Link", ...]] = {}
        #: flow_id -> [data packets in current flowlet, flowlet index].
        self._flowlets: Dict[int, List[int]] = {}
        self._flowlet_packets = 0
        self._ecmp_salt = 0
        #: True only when some destination actually has >= 2 candidates;
        #: the single-path per-packet lookup never enters the spray code.
        self.multipath = False
        #: Drop (and count) packets with no route instead of raising —
        #: enabled by the dynamics layer, where a failure can legally
        #: partition the network.
        self.drop_unrouted = False
        self.unrouted_drops = 0

    def set_route(self, dst_name: str, link: "Link") -> None:
        """Install ``link`` as the next hop toward destination ``dst_name``."""
        self._routes[dst_name] = link

    def route_for(self, dst_name: str) -> Optional["Link"]:
        """Next hop toward ``dst_name`` or None — the one rule every forwarder
        uses: an explicit entry, else the uplink iff ``dst_name`` is in reach."""
        link = self._routes.get(dst_name)
        if link is None and dst_name in self._reach and dst_name != self.name:
            return self._uplink
        return link

    def routes(self) -> Dict[str, "Link"]:
        """The effective ``{destination: next hop}``, materialised and
        sorted by destination — for tests and debugging, never per packet."""
        names = sorted(self._reach.union(self._routes))
        return {dst: self.route_for(dst) for dst in names if dst != self.name}

    # -- table installation (atomic swaps) --------------------------------

    def install_routes(
        self,
        routes: Mapping[str, "Link"],
        uplink: Optional["Link"] = None,
        reach: FrozenSet[str] = frozenset(),
    ) -> None:
        """Atomically replace the whole forwarding state (single-path);
        a plain table install clears any ``uplink``/``reach`` held before."""
        self._routes = dict(routes)
        self._uplink = uplink
        self._reach = reach
        self._ecmp_routes = {}
        self.multipath = False

    def install_multipath_routes(
        self,
        routes: Mapping[str, "Link"],
        ecmp_routes: Mapping[str, Tuple["Link", ...]],
        flowlet_packets: int = 0,
        uplink: Optional["Link"] = None,
        reach: FrozenSet[str] = frozenset(),
    ) -> None:
        """Atomically replace the state with ECMP candidate sets.

        ``routes`` is the primary (deterministic tie-break) next hop per
        destination; ``ecmp_routes`` the per-destination equal-cost
        candidates.  ``flowlet_packets == 0`` means plain per-flow ECMP.
        """
        self.install_routes(routes, uplink, reach)
        self._ecmp_routes = {
            dst: tuple(links)
            for dst, links in ecmp_routes.items()
            if len(links) >= 2
        }
        self._flowlet_packets = flowlet_packets
        if not self._ecmp_salt:
            # Per-router salt so parallel routers spray independently;
            # crc32 of the name is stable across processes and replays.
            self._ecmp_salt = zlib.crc32(self.name.encode("utf-8")) or 1
        self.multipath = bool(self._ecmp_routes)

    # -- per-packet selection ---------------------------------------------

    def route_for_packet(self, packet: Packet) -> Optional["Link"]:
        """Next-hop link for ``packet``, honoring multipath spraying.

        Falls back to the primary table for destinations without
        equal-cost alternatives.  Only *data* packets advance the flowlet
        counter; zero-size control packets follow the current flowlet.
        """
        if self.multipath:
            candidates = self._ecmp_routes.get(packet.dst)
            if candidates is not None:
                state = self._flowlets.get(packet.flow_id)
                if state is None:
                    state = [0, 0]
                    self._flowlets[packet.flow_id] = state
                flowlet = state[1]
                n = self._flowlet_packets
                if n > 0 and packet.size > 0.0:
                    # Select on the current flowlet, then advance: the
                    # k-th data packet of a flow belongs to flowlet k // n.
                    state[0] += 1
                    if state[0] >= n:
                        state[0] = 0
                        state[1] += 1
                return candidates[
                    _ecmp_index(
                        packet.flow_id, flowlet, self._ecmp_salt, len(candidates)
                    )
                ]
        return self.route_for(packet.dst)

    def forward(self, packet: Packet) -> bool:
        """Send ``packet`` toward its destination; False if it was dropped."""
        if packet.dst == self.name:
            raise RoutingError(
                f"{self.name}: asked to forward a packet addressed to itself"
            )
        if self.multipath:
            link = self.route_for_packet(packet)
        else:
            link = self.route_for(packet.dst)
        if link is None:
            if self.drop_unrouted:
                if packet.size > 0.0:
                    self.unrouted_drops += 1
                return False
            raise RoutingError(f"{self.name}: no route toward {packet.dst!r}")
        return link.send(packet)

    def receive(self, packet: Packet, link: "Link") -> None:
        """Default behavior: pure forwarding (the paper's core data path)."""
        self.forward(packet)
