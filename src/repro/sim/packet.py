"""Packet model.

A single :class:`Packet` class covers all traffic in the system; the
:class:`PacketKind` field distinguishes:

* ``DATA`` — a 1-packet-sized payload packet of an edge-to-edge flow.
* ``MARKER`` — a Corelite marker (one per ``Nw = K1 * w`` data packets)
  travelling alone.  Markers are *logically distinct but physically
  piggybacked* (paper §2.2): one is normally two fields of the DATA packet
  it was emitted with (``origin_edge``, ``label``) and a packet only where
  the two part (:meth:`Packet.detach_marker`) — of size 0, so it occupies a
  FIFO position in queues but consumes no bandwidth and no buffer space.
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

__all__ = ["Packet", "PacketKind", "PacketTrain"]

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


_DATA = PacketKind.DATA


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
        Set on a DATA packet it means "a marker is aboard".
    label:
        For markers (aboard or standalone): the flow's normalized rate
        ``rn = bg/w`` at injection time (used by the selective feedback
        scheme).  For CSFQ data packets: the normalized rate estimate
        carried in the header.
    feedback_from:
        For FEEDBACK packets: identifier of the congested core link that
        echoed the marker (the edge reacts to the *max* over core routers).
    created_at:
        Virtual time at which the packet was created.
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
    )

    #: Number of data packets this object represents.  Plain packets are
    #: always 1; :class:`PacketTrain` overrides with a per-instance slot.
    #: Counters on the datapath charge ``packet.count`` so that trains and
    #: scalars share one bookkeeping path (``+= packet.count`` is
    #: ``+= 1`` for every non-train packet, preserving byte-identity).
    count = 1

    #: Number of Corelite markers aboard a marker-bearing packet
    #: (``origin_edge is not None``).  A scalar packet carries exactly
    #: one; trains may carry several.  Only read when ``origin_edge`` is set.
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
        if sim is None:
            self.pid = next(_packet_ids)
        else:
            self.pid = sim._next_pid = sim._next_pid + 1
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

    def detach_marker(self, sim: Optional["Simulator"] = None) -> "Packet":
        """Part this scalar data packet from the marker aboard it: returns
        the zero-size packet that would have trailed it — same flow, origin,
        destination, label, ``created_at`` — and this one carries none."""
        marker = Packet.marker(
            self.flow_id, self.origin_edge, self.dst, self.label, self.created_at, sim=sim
        )
        self.origin_edge = None
        self.label = 0.0
        return marker

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
    * ``marker_count`` piggybacked markers ride on the train when
      ``origin_edge`` is set; on a split they attach to the first
      ``marker_count`` members.
    * ``created_at`` is shared: train members are emitted back-to-back at
      one shaper firing.  The train is delivered when its tail is; the
      egress edge places member ``i`` ``(count - 1 - i) / bandwidth``
      earlier, the last link's serialization spacing.

    Trains only ever exist on Corelite's opt-in ``train_batch > 1``
    datapath and are pinned *statistically* (Jain ratio, per-flow rates),
    never byte-identically — splitting and bulk charging reorder work
    relative to the scalar schedule.
    """

    __slots__ = ("count", "marker_count")

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
        # Positional: one frame per train, as an edge's scalar ``Packet``.
        Packet.__init__(
            self, _DATA, flow_id, src, dst, float(n), first_seq, None, label, created_at, sim
        )
        self.count = n
        self.marker_count = 0

    def split(self, sim: Optional["Simulator"] = None) -> list:
        """Materialize the scalar member packets and retire the train.

        Called at any boundary that needs per-packet decisions (non-FIFO
        queues, arrival taps, dynamic links, partition cuts).  Markers, and
        the label they carry, attach to the first ``marker_count`` members.
        The caller drops the train afterwards.
        """
        head = self.seq
        created = self.created_at
        label = self.label
        origin = self.origin_edge
        markers = self.marker_count if origin is not None else 0
        members = []
        for i in range(self.count):
            pkt = Packet.data(
                self.flow_id, self.src, self.dst, head + i, created,
                label=label if i < markers else 0.0, sim=sim,
            )
            if i < markers:
                pkt.origin_edge = origin
            members.append(pkt)
        return members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketTrain(#{self.pid} flow={self.flow_id} n={self.count} "
            f"seq={self.seq}..{self.seq + self.count - 1} "
            f"{self.src}->{self.dst})"
        )

