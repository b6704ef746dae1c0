"""The CSFQ edge router: :class:`repro.core.edge.EdgeRouter` plus CSFQ's signal.

The shared base is the edge itself — slot tables, controller and paced
shaper per flow, start / stop / deposit, the egress meter, delay tracker and
sequence-gap loss detector.  What is CSFQ's own:

Ingress role: estimate the flow's rate with exponential averaging
(:class:`~repro.sim.estimators.ExponentialRateEstimator`) and stamp each
data packet's label with the *normalized* estimate ``r/w`` — the weighted
CSFQ labeling.

Egress role: report each sequence gap to the ingress edge over the control
plane (LOSS_NOTIFY).  The ingress counts losses per edge epoch and runs the
shared controller on that count — the paper's "similar rate adaptation
schemes ... (losses in case of CSFQ)".

Hot frames
----------
As at a Corelite edge, a scalar packet is one frame at each end, its helpers
inline: ``_emit`` (estimator, ``Packet``, ``Router.forward``'s route hit) and
``receive`` (loss detector, meter, delay; ``_deliver_local`` keeps the rest).
``quiet_for`` tells the feeding link which deliveries send no LOSS_NOTIFY:
those are booked (:mod:`repro.sim.link`, "Sinks"), and one that finds a loss
raises.  What the frames produce is pinned by the contract table's CSFQ rows
(``tests/contract``).
"""

from __future__ import annotations

from math import exp
from typing import Callable, Optional

from repro.core.adaptation import RateController
from repro.core.edge import EdgeRouter, FlowAttachment
from repro.core.shaping import PacedSender
from repro.csfq.config import CsfqConfig
from repro.errors import FlowError, SimulationError
from repro.sim.delay import DelayTracker
from repro.sim.engine import EventHandle, Simulator
from repro.sim.estimators import ExponentialRateEstimator
from repro.sim.monitor import ThroughputMeter
from repro.sim.packet import Packet, PacketKind

__all__ = ["CsfqEdge"]

_DATA = PacketKind.DATA

#: Ships a LOSS_NOTIFY packet toward the ingress edge named in packet.dst.
LossChannel = Callable[[Packet], None]


class _IngressFlow:
    __slots__ = (
        "attachment",
        "controller",
        "pacer",
        "estimator",
        "seq",
        "signal",
        "active",
        "backlog",
        "fence",
    )
    #: The flow's shaper, wired by ``EdgeRouter._attach``.
    pacer: PacedSender

    def __init__(
        self,
        attachment: FlowAttachment,
        controller: RateController,
        estimator: ExponentialRateEstimator,
    ) -> None:
        self.attachment = attachment
        self.controller = controller
        self.estimator = estimator
        self.seq = 0
        #: Losses notified this epoch: the controller's ``m(f)``.
        self.signal = 0
        self.active = False
        #: None = always backlogged; otherwise packets awaiting shaping.
        self.backlog: Optional[int] = None if attachment.backlogged else 0
        #: The shaper ``fence`` the plan gives a release candidate (``_epoch``).
        self.fence: Optional[EventHandle] = None


class _EgressFlow:
    __slots__ = ("meter", "expected_seq", "lost", "ecn_marks", "delay", "fed_seq")

    def __init__(self) -> None:
        self.meter = ThroughputMeter()
        self.expected_seq: Optional[int] = None
        self.lost = 0
        self.ecn_marks = 0
        #: One-way delay statistics (ingress shaping to egress delivery).
        self.delay = DelayTracker()
        #: Max ``seq + 1`` the feeding link has handed over (``quiet_for``).
        self.fed_seq: Optional[int] = None


class CsfqEdge(EdgeRouter):
    """An edge router of the CSFQ cloud (ingress + egress roles)."""

    #: The egress only records, but for gaps and ECN marks (``quiet_for``).
    quiet_sink = True
    egress_flow = _EgressFlow

    def __init__(
        self,
        name: str,
        sim: Simulator,
        config: CsfqConfig,
        epoch_offset: Optional[float] = None,
    ) -> None:
        """See :class:`~repro.core.edge.EdgeRouter`; every flow is scalar
        (a CSFQ core decides per packet, so a train would split there)."""
        super().__init__(name, sim, config, epoch_offset)
        #: Set by ``CsfqStrategy.make_edge``: ships loss notifications upstream.
        self.loss_channel: Optional[LossChannel] = None
        self.stray_notifications = 0

    # -- ingress role ---------------------------------------------------

    def attach_flow(self, attachment: FlowAttachment) -> None:
        if attachment.min_rate > 0 or attachment.external:
            raise FlowError(
                f"flow {attachment.flow_id}: minimum rate contracts and external "
                "(host-fed) flows are Corelite edge features"
            )
        estimator = ExponentialRateEstimator(self.config.k_flow, start_time=self.sim.now)
        state = _IngressFlow(attachment, self._controller(attachment), estimator)
        self._attach(state)

    def start_flow(self, flow_id: int) -> None:
        state = self._ingress_state(flow_id)
        if state.active:
            return
        state.active = True
        self._active_dirty = True
        state.controller.restart(self.sim.now)
        state.estimator.restart(self.sim.now)
        state.signal = 0
        state.pacer.set_rate(state.controller.rate)
        state.pacer.fence = None  # slow start (:mod:`repro.core.shaping`, "Releases")
        state.pacer.start()

    def receive_loss_notify(self, packet: Packet) -> None:
        """Control-plane entry: egress-detected losses for one of our flows."""
        if packet.kind != PacketKind.LOSS_NOTIFY:
            raise FlowError(f"{self.name}: unexpected control packet {packet!r}")
        slot = self._ingress_index.get(packet.flow_id)
        state = self._ingress_flows[slot] if slot is not None else None
        if state is None or not state.active:
            self.stray_notifications += 1
            return
        state.signal += int(packet.label)

    def _emit(self, state: _IngressFlow) -> bool:
        if state.backlog is not None:
            if state.backlog < 1:
                return False  # nothing deposited yet: the shaper parks
            state.backlog -= 1
        att = state.attachment
        now = self.sim.now
        # ``estimator.update(now, 1.0)`` written out, arithmetic unchanged.
        est = state.estimator
        gap = now - est._last_time
        if gap > 0.0:
            weight = exp(-gap / est.k)
            load = est._pending + 1.0
            est._pending = 0.0
            est._last_time = now
            rate = est.rate = (1.0 - weight) * (load / gap) + weight * est.rate
        elif gap == 0.0:
            est._pending += 1.0
            rate = est.rate
        else:
            raise SimulationError(f"rate estimator saw time go backwards ({gap})")
        label = rate / att.weight  # weighted CSFQ: labels are normalized
        name, dst = self.name, att.dst_edge
        packet = Packet(_DATA, att.flow_id, name, dst, 1.0, state.seq, None, label, now, self.sim)
        state.seq += 1
        link = self._routes.get(dst)  # ``Router.forward``'s single-path hit, inline
        if link is None and dst in self._reach and dst != name:
            link = self._uplink
        if link is None or self.multipath:
            self.forward(packet)
        else:
            link.send(packet)
        return True

    # -- egress role -----------------------------------------------------

    def quiet_for(self, packet: Packet) -> bool:
        """Whether delivering ``packet`` provably sends nothing (``Node``): a
        data packet does if its seq is at most ``fed_seq`` — the feeder is
        FIFO, so ``expected_seq >= fed_seq >= seq`` on arrival: in order or late.
        A flow's first packet, an ECN mark and an unknown flow (its
        ``FlowError``) take an event."""
        slot = self._egress_index.get(packet.flow_id)
        if slot is None:
            return False
        if packet.kind is not _DATA:
            return True
        state = self._egress_flows[slot]
        seq, fed = packet.seq, state.fed_seq
        if fed is None or seq >= fed:
            state.fed_seq = seq + 1
        return fed is not None and seq <= fed and not packet.ecn

    def _deliver_local(self, packet: Packet, link, at: Optional[float]) -> None:
        """All but what ``receive`` records itself (``at``: as there)."""
        slot = self._egress_index.get(packet.flow_id)
        if slot is None:
            raise FlowError(
                f"{self.name}: packet for unexpected flow {packet.flow_id} "
                f"(call expect_flow first)"
            )
        if packet.kind is not _DATA:
            return
        state = self._egress_flows[slot]
        gap = self._sequence_gap(state, packet.seq)
        if gap:
            self._report_loss(packet, gap, at)
        if packet.ecn:
            # DECbit-style marking: a congestion indication without a loss
            # (only set by the ABL-AQM DecbitQueue; CSFQ itself drops).
            state.ecn_marks += 1
            self._report_loss(packet, 1, at)
        state.meter.record()
        state.delay.record(max(0.0, (self.sim.now if at is None else at) - packet.created_at))

    def _report_loss(self, packet: Packet, gap: int, at: Optional[float]) -> None:
        if at is not None:  # booked: ``quiet_for`` vouched for it
            raise SimulationError(
                f"{self.name}: flow {packet.flow_id} seq {packet.seq} was booked as quiet "
                f"but reports {gap} lost or marked at its delivery ({at})"
            )
        if self.loss_channel is None:
            return
        notify = Packet(
            PacketKind.LOSS_NOTIFY,
            packet.flow_id,
            src=self.name,
            dst=packet.src,
            size=0.0,
            label=float(gap),
            created_at=self.sim.now,
            sim=self.sim,
        )
        self.loss_channel(notify)

    # -- shared receive path -------------------------------------------------

    def receive(self, packet: Packet, link, at: Optional[float] = None) -> None:
        """``at``: the delivery instant of a booked packet (``CoreliteEdge``);
        an event hands its packet over at ``sim.now``, after the inbox."""
        now = at
        if at is None:
            if self.inbox:
                self.sim.settle(self.inbox)
            now = self.sim.now
        if packet.dst != self.name:
            self.forward(packet)
            return
        slot = self._egress_index.get(packet.flow_id)
        if slot is None or packet.kind is not _DATA or packet.ecn:
            self._deliver_local(packet, link, at)
            return
        # The egress record of a scalar data packet, in this frame.
        state = self._egress_flows[slot]
        seq = packet.seq  # ``_sequence_gap``, inline
        expected = state.expected_seq
        if expected is None:
            expected = seq
        if seq >= expected:
            state.expected_seq = seq + 1
            if seq > expected:
                state.lost += seq - expected
                self._report_loss(packet, seq - expected, at)
        elif state.lost:
            state.lost -= 1
        state.meter.count += 1
        delay = now - packet.created_at if now > packet.created_at else 0.0
        tracker = state.delay  # DelayTracker.record, inline
        index = tracker.count
        tracker.count = index + 1
        tracker.total += delay
        tracker.total_sq += delay * delay
        if delay < tracker.min:
            tracker.min = delay
        if delay > tracker.max:
            tracker.max = delay
        if index >= tracker._next:
            if index < tracker._capacity:
                tracker._reservoir.append(delay)
            else:
                tracker._admit(index, delay)
