"""The fast-path plan: where each exact shortcut of the per-packet datapath
may engage, decided once at finalize (docs/ARCHITECTURE.md, "Hot path").
"""

from __future__ import annotations

from math import inf

from repro.csfq.edge import CsfqEdge

__all__ = ["plan"]


def plan(links, edges=(), last_hops=None, routes_fixed=False) -> None:
    """Turn each fast path on where it is exact, in the slots it reads
    (links and flows start with every path off; ``Link._wire`` voids a
    link's entries).  ``last_hops`` maps each flow's own egress link to the
    link before it; ``routes_fixed``: static routing, no network events.

    * A link takes fast paths (``_hold = -inf``: parking) if it is a
      departure-time FIFO with no observer, not armed.
    * Such an egress link into a quiet sink books (``_sink``): a flow's
      egress edge is its own, so its ledger has one feeder.
    * With fixed routes, the core link before it hands hops over
      (``_through``) if the core runs its scheme on the egress (not FIFO),
      but not into a host-fed flow's egress: its data is addressed past the
      egress edge, so it would not hold back the markers sent there.
    * A flow releases (``fence``) if it is its single-path edge's only,
      always-backlogged flow, its first hop taking fast paths into no quiet
      sink, and no CSFQ aggregate bucket: past slow start that paces at a
      small multiple of N pkt/s, so two buckets' firings meet at equal floats,
      whose order a release would change (measured: PERF_LOG, PR 46).
    """
    for link in links:
        if link._plain_fifo and not (
            link._dynamic or link._drop_listeners or link._arrival_taps or link._delivery_taps
        ):
            link._hold = -inf
    last_hops = last_hops or {}
    # The links a core runs its scheme on, and host-fed flows' egress edges.
    enabled = {n for f in set(last_hops.values()) if routes_fixed for n in f.dst.enabled_links()}
    past_egress = {
        s.attachment.dst_edge for e in edges for s in e._ingress_flows if s.attachment.external
    }
    for egress, feeder in last_hops.items():
        if egress._hold == inf:
            continue
        dst = egress.dst
        if dst.quiet_sink:
            egress._sink = dst.name
            egress._quiet_for = dst.quiet_for
        if (
            routes_fixed
            and feeder._hold < inf
            and dst.name not in past_egress
            and egress.name in enabled
        ):
            feeder._through = feeder._through or {}
            feeder._through[dst.name] = egress
    for edge in edges:
        if len(edge._ingress_flows) != 1 or edge.multipath:
            continue
        state = edge._ingress_flows[0]
        attachment = state.attachment
        if state.backlog is not None or (attachment.aggregate > 1 and isinstance(edge, CsfqEdge)):
            continue
        link = edge.route_for(attachment.dst_edge)
        if link is not None and link._hold < inf and not link.dst.quiet_sink:
            state.fence = edge._epoch_task.handle
