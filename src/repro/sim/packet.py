"""Packet model.

A single :class:`Packet` class covers all traffic in the system; the
:class:`PacketKind` field distinguishes:

* ``DATA`` — a 1-packet-sized payload packet of an edge-to-edge flow.
* ``MARKER`` — a Corelite marker injected by the ingress edge after every
  ``Nw = K1 * w`` data packets.  Markers are *logically distinct but
  physically piggybacked* (paper §2.2), so their size is 0: they occupy a
  FIFO position in queues but consume no bandwidth and no buffer space.
* ``FEEDBACK`` — a marker echoed back to its generating edge by a congested
  core router.  Feedback travels on the control plane.
* ``LOSS_NOTIFY`` — an egress-edge loss report used by the CSFQ baseline
  (the paper's "congestion indication messages ... losses in case of CSFQ").

Rates are in packets/second and sizes in packets throughout the simulator
(the paper uses a fixed 1 KB packet; see :mod:`repro.units`).
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

__all__ = ["Packet", "PacketKind", "PacketPool", "PacketTrain"]

#: Fallback id source for packets built without a simulator (unit tests,
#: interactive probing).  Components always pass ``sim=`` so that packet
#: ids are allocated per simulation: two clouds built in one process then
#: produce identical id sequences, which keeps batch runs reproducible
#: regardless of how many simulations the process ran before.
_packet_ids = itertools.count(1)


class PacketKind(IntEnum):
    """Discriminates the packet types that traverse the simulator."""

    DATA = 0
    MARKER = 1
    FEEDBACK = 2
    LOSS_NOTIFY = 3
    #: Transport-level acknowledgment (TCP end-host extension); size 0.
    ACK = 4


class Packet:
    """A packet in flight.

    Attributes
    ----------
    pid:
        Packet id, unique and monotonically increasing within one
        simulation (allocated by the owning :class:`Simulator` when
        ``sim`` is passed; a process-global counter otherwise).
    kind:
        One of :class:`PacketKind`.
    flow_id:
        Id of the edge-to-edge flow the packet belongs to.
    size:
        Size in units of data packets (1.0 for DATA, 0.0 for control kinds).
    seq:
        Per-flow sequence number of DATA packets (used by the CSFQ egress to
        detect losses via gaps); 0 for non-data packets.
    src / dst:
        Names of the ingress and egress edge routers.
    origin_edge:
        For markers: the edge router that generated the marker (the paper's
        "source address of the marker"), i.e. where feedback must return.
    label:
        For markers: the flow's normalized rate ``rn = bg/w`` at injection
        time (used by the selective feedback scheme).  For CSFQ data
        packets: the normalized rate estimate carried in the header.
    feedback_from:
        For FEEDBACK packets: identifier of the congested core link that
        echoed the marker (the edge reacts to the *max* over core routers).
    created_at:
        Virtual time at which the packet was created.
    trailer:
        Link-private: the next zero-size packet riding this packet's
        delivery event on the link it is crossing.  ``None`` everywhere
        outside :mod:`repro.sim.link`.
    """

    __slots__ = (
        "pid",
        "kind",
        "flow_id",
        "size",
        "seq",
        "src",
        "dst",
        "origin_edge",
        "label",
        "feedback_from",
        "created_at",
        "ecn",
        "micro_id",
        "trailer",
    )

    #: Number of data packets this object represents.  Plain packets are
    #: always 1; :class:`PacketTrain` overrides with a per-instance slot.
    #: Counters on the datapath charge ``packet.count`` so that trains and
    #: scalars share one bookkeeping path (``+= packet.count`` is
    #: ``+= 1`` for every non-train packet, preserving byte-identity).
    count = 1

    #: Number of piggybacked Corelite markers carried by a marker-bearing
    #: packet (``origin_edge is not None``).  Scalar merged-marker packets
    #: always carry exactly one; trains may carry several.  Only read when
    #: ``origin_edge`` is set.
    marker_count = 1

    def __init__(
        self,
        kind: PacketKind,
        flow_id: int,
        src: str,
        dst: str,
        size: float = 1.0,
        seq: int = 0,
        origin_edge: Optional[str] = None,
        label: float = 0.0,
        created_at: float = 0.0,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.pid = next(_packet_ids) if sim is None else sim.next_packet_id()
        self.kind = kind
        self.flow_id = flow_id
        self.size = size
        self.seq = seq
        self.src = src
        self.dst = dst
        self.origin_edge = origin_edge
        self.label = label
        self.feedback_from: Optional[str] = None
        self.created_at = created_at
        #: Congestion-experienced bit (used by the DECbit baseline queue).
        self.ecn = False
        #: End-to-end micro-flow id within an aggregated edge-to-edge flow
        #: (paper §2: an edge-to-edge flow "can potentially comprise of
        #: several end to end micro flows"); 0 when not aggregated.
        self.micro_id = 0
        #: Next zero-size packet riding this packet's delivery event on the
        #: link it is crossing (see :mod:`repro.sim.link`); the link sets
        #: it and clears it again before handing the packet on, so it is
        #: ``None`` at every node and at the pool.
        self.trailer: Optional["Packet"] = None

    @classmethod
    def data(
        cls,
        flow_id: int,
        src: str,
        dst: str,
        seq: int,
        now: float,
        label: float = 0.0,
        sim: Optional["Simulator"] = None,
    ) -> "Packet":
        """Create a DATA packet (size 1.0)."""
        if sim is not None and sim.packet_pool is not None:
            return sim.packet_pool.acquire(
                PacketKind.DATA, flow_id, src, dst, 1.0, seq, None, label, now, sim
            )
        return cls(
            PacketKind.DATA,
            flow_id,
            src,
            dst,
            size=1.0,
            seq=seq,
            label=label,
            created_at=now,
            sim=sim,
        )

    @classmethod
    def marker(
        cls,
        flow_id: int,
        src: str,
        dst: str,
        label: float,
        now: float,
        sim: Optional["Simulator"] = None,
    ) -> "Packet":
        """Create a piggybacked MARKER packet (size 0.0).

        ``src`` doubles as the marker's origin edge: the core router sends
        feedback back to ``origin_edge`` without inspecting anything else.
        """
        if sim is not None and sim.packet_pool is not None:
            return sim.packet_pool.acquire(
                PacketKind.MARKER, flow_id, src, dst, 0.0, 0, src, label, now, sim
            )
        return cls(
            PacketKind.MARKER,
            flow_id,
            src,
            dst,
            size=0.0,
            origin_edge=src,
            label=label,
            created_at=now,
            sim=sim,
        )

    def to_feedback(
        self, core_link: str, now: float, sim: Optional["Simulator"] = None
    ) -> "Packet":
        """Clone this marker into a FEEDBACK packet addressed to its edge."""
        fb = Packet(
            PacketKind.FEEDBACK,
            self.flow_id,
            src=core_link,
            dst=self.origin_edge or self.src,
            size=0.0,
            label=self.label,
            created_at=now,
            sim=sim,
        )
        fb.origin_edge = self.origin_edge
        fb.feedback_from = core_link
        return fb

    @property
    def is_data(self) -> bool:
        return self.kind == PacketKind.DATA

    @property
    def is_marker(self) -> bool:
        return self.kind == PacketKind.MARKER

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.pid} {self.kind.name} flow={self.flow_id} "
            f"seq={self.seq} {self.src}->{self.dst})"
        )


class PacketTrain(Packet):
    """A train of ``n`` back-to-back DATA packets of one flow (opt-in).

    The train datapath coalesces consecutive departures of the same
    edge-to-edge flow into a single simulator event per hop.  A train *is*
    a :class:`Packet` whose ``size`` equals the member count, so every
    plain-FIFO arithmetic path — queue occupancy, drop-tail admission,
    link serialization time ``size / bandwidth`` — charges the whole train
    in one step without knowing about trains.  Per-member bookkeeping
    (delivered counts, drops, marker observations) charges
    ``packet.count`` instead of the literal ``1``.

    Member layout
    -------------
    * ``seq`` is the *head* sequence number; members carry the contiguous
      range ``seq .. seq + count - 1`` (the egress loss detector uses the
      head for its gap computation and advances past the tail).
    * ``micro_ids`` optionally holds one micro-flow id per member (for
      aggregated sources); ``None`` means all members use ``micro_id``.
    * ``marker_count`` piggybacked markers ride on the train when
      ``origin_edge`` is set; on a split they attach to the first
      ``marker_count`` members.
    * ``created_at`` is shared: train members are emitted back-to-back at
      one shaper firing.  The train is delivered when its tail is; the
      egress edge places member ``i`` ``(count - 1 - i) / bandwidth``
      earlier, the last link's serialization spacing.

    Trains only ever exist on the opt-in ``train_batch > 1`` datapath and
    are pinned *statistically* (Jain ratio, per-flow rates), never
    byte-identically — splitting and bulk charging reorder work relative
    to the scalar schedule.
    """

    __slots__ = ("count", "marker_count", "micro_ids", "member_labels")

    def __init__(
        self,
        flow_id: int,
        src: str,
        dst: str,
        first_seq: int,
        n: int,
        created_at: float,
        label: float = 0.0,
        sim: Optional["Simulator"] = None,
    ) -> None:
        super().__init__(
            PacketKind.DATA,
            flow_id,
            src,
            dst,
            size=float(n),
            seq=first_seq,
            label=label,
            created_at=created_at,
            sim=sim,
        )
        self.count = n
        self.marker_count = 0
        self.micro_ids: Optional[tuple] = None
        #: Per-member CSFQ labels (the scalar estimator's label ladder);
        #: ``None`` means every member shares ``label`` on a split.
        self.member_labels: Optional[tuple] = None

    @classmethod
    def build(
        cls,
        flow_id: int,
        src: str,
        dst: str,
        first_seq: int,
        n: int,
        now: float,
        label: float = 0.0,
        sim: Optional["Simulator"] = None,
    ) -> "PacketTrain":
        """Create a train of ``n`` DATA packets (pool-aware)."""
        if sim is not None and sim.packet_pool is not None:
            return sim.packet_pool.acquire_train(
                flow_id, src, dst, first_seq, n, label, now, sim
            )
        return cls(flow_id, src, dst, first_seq, n, created_at=now, label=label, sim=sim)

    def split(self, sim: Optional["Simulator"] = None) -> list:
        """Materialize the scalar member packets and retire the train.

        Called at any boundary that needs per-packet decisions (non-FIFO
        queues, arrival taps, dynamic links, partition cuts).  Markers
        attach to the first ``marker_count`` members; a label on a
        markerless train (the CSFQ per-packet rate estimate) is copied to
        every member.  The train itself is returned to the packet pool —
        the caller must drop its reference afterwards.
        """
        head = self.seq
        created = self.created_at
        label = self.label
        origin = self.origin_edge
        markers = self.marker_count if origin is not None else 0
        micro_ids = self.micro_ids
        member_labels = self.member_labels
        label_all = origin is None
        members = []
        for i in range(self.count):
            if member_labels is not None:
                member_label = member_labels[i]
            else:
                member_label = label if (label_all or i < markers) else 0.0
            pkt = Packet.data(
                self.flow_id, self.src, self.dst, head + i, created,
                label=member_label, sim=sim,
            )
            if i < markers:
                pkt.origin_edge = origin
            if micro_ids is not None:
                pkt.micro_id = micro_ids[i]
            members.append(pkt)
        if sim is not None and sim.packet_pool is not None:
            sim.packet_pool.release(self)
        return members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketTrain(#{self.pid} flow={self.flow_id} n={self.count} "
            f"seq={self.seq}..{self.seq + self.count - 1} "
            f"{self.src}->{self.dst})"
        )


class PacketPool:
    """Opt-in free list of :class:`Packet` objects.

    Long runs allocate millions of short-lived packets; recycling the
    objects cuts allocator churn without touching simulation semantics.
    Enable by assigning a pool to ``Simulator.packet_pool`` (the builder
    exposes this as ``packet_pool=True``); ``Packet.data``/``marker`` then
    draw from the pool automatically when called with ``sim=``.

    Determinism: pooling changes *object identity* only, never ids —
    :meth:`acquire` draws the pid from the owning simulator's counter
    exactly as a fresh construction would, and reinitializes every slot.
    Replay tests pin that runs with the pool on and off are byte-identical.

    Safety: :meth:`release` may only be called at a packet's terminal sink
    (egress local delivery), and nothing may retain a reference past that
    point.  Components that record packet attributes copy scalars out
    (tracers, meters), so the edges are the only owners at delivery time.
    Packets that are dropped or never released are simply garbage-collected.
    A delivering link clears ``trailer`` before it hands a packet to its
    sink, so a released packet never carries a rider (pinned in
    ``tests/test_link.py``) and ``acquire`` has nothing to reset there.
    """

    __slots__ = ("max_size", "_free", "_free_trains", "allocated", "reused", "released")

    def __init__(self, max_size: int = 4096) -> None:
        if max_size < 1:
            raise ValueError(f"pool max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self._free: list = []
        #: Separate free list for :class:`PacketTrain` objects — trains and
        #: scalars must never swap classes on reuse, so each class recycles
        #: through its own list.
        self._free_trains: list = []
        #: Pool misses: packets freshly constructed because the list was empty.
        self.allocated = 0
        #: Pool hits: packets recycled from the free list.
        self.reused = 0
        #: Packets returned via :meth:`release` (capped entries still count).
        self.released = 0

    def acquire(
        self,
        kind: PacketKind,
        flow_id: int,
        src: str,
        dst: str,
        size: float,
        seq: int,
        origin_edge: Optional[str],
        label: float,
        created_at: float,
        sim: "Simulator",
    ) -> Packet:
        """Take a recycled packet (or build one) and fully reinitialize it."""
        free = self._free
        if not free:
            self.allocated += 1
            return Packet(
                kind,
                flow_id,
                src,
                dst,
                size=size,
                seq=seq,
                origin_edge=origin_edge,
                label=label,
                created_at=created_at,
                sim=sim,
            )
        self.reused += 1
        packet = free.pop()
        packet.pid = sim.next_packet_id()
        packet.kind = kind
        packet.flow_id = flow_id
        packet.size = size
        packet.seq = seq
        packet.src = src
        packet.dst = dst
        packet.origin_edge = origin_edge
        packet.label = label
        packet.feedback_from = None
        packet.created_at = created_at
        packet.ecn = False
        packet.micro_id = 0
        return packet

    def acquire_train(
        self,
        flow_id: int,
        src: str,
        dst: str,
        first_seq: int,
        n: int,
        label: float,
        created_at: float,
        sim: "Simulator",
    ) -> PacketTrain:
        """Take a recycled train (or build one) and fully reinitialize it."""
        free = self._free_trains
        if not free:
            self.allocated += 1
            return PacketTrain(
                flow_id, src, dst, first_seq, n, created_at=created_at,
                label=label, sim=sim,
            )
        self.reused += 1
        train = free.pop()
        train.pid = sim.next_packet_id()
        train.kind = PacketKind.DATA
        train.flow_id = flow_id
        train.size = float(n)
        train.seq = first_seq
        train.src = src
        train.dst = dst
        train.origin_edge = None
        train.label = label
        train.feedback_from = None
        train.created_at = created_at
        train.ecn = False
        train.micro_id = 0
        train.count = n
        train.marker_count = 0
        train.micro_ids = None
        train.member_labels = None
        return train

    def release(self, packet: Packet) -> None:
        """Return a packet whose journey ended; caller must drop its reference."""
        self.released += 1
        if type(packet) is Packet:
            if len(self._free) < self.max_size:
                self._free.append(packet)
        elif len(self._free_trains) < self.max_size:
            self._free_trains.append(packet)

    def __len__(self) -> int:
        return len(self._free) + len(self._free_trains)
