"""The CSFQ edge router.

Ingress role: shape each flow to its allowed rate with the same paced
sender as Corelite, estimate the flow's rate with exponential averaging
(:class:`~repro.sim.estimators.ExponentialRateEstimator`) and stamp each
data packet's label with the *normalized* estimate ``r/w`` — the weighted
CSFQ labeling.

Egress role: detect losses from sequence gaps and report them to the
ingress edge over the control plane (LOSS_NOTIFY).  The ingress counts
losses per edge epoch and runs the shared slow-start + LIMD
:class:`~repro.core.adaptation.RateController` on that count — the paper's
"similar rate adaptation schemes ... (losses in case of CSFQ)".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.adaptation import RateController
from repro.core.shaping import PacedSender
from repro.csfq.config import CsfqConfig
from repro.errors import FlowError, SimulationError
from repro.sim.delay import DelayTracker
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.estimators import ExponentialRateEstimator
from repro.sim.monitor import ThroughputMeter
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind, PacketTrain

__all__ = ["CsfqFlowAttachment", "CsfqEdge"]

_DATA = PacketKind.DATA

#: Ships a LOSS_NOTIFY packet toward the ingress edge named in packet.dst.
LossChannel = Callable[[Packet], None]


@dataclass(frozen=True)
class CsfqFlowAttachment:
    """Declaration of one flow at its CSFQ ingress edge.

    ``backlogged`` mirrors :class:`repro.core.edge.FlowAttachment`: set it
    False for flows fed by a traffic source via :meth:`CsfqEdge.deposit`.
    """

    flow_id: int
    weight: float
    dst_edge: str
    backlogged: bool = True
    #: Member-flow count for an aggregate bucket; ``weight`` is the
    #: bucket total (member x N), so per-packet labels r/weight stay
    #: normalized to the member fair share.  Controller gains scale as
    #: in :class:`repro.core.adaptation.RateController`.
    aggregate: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise FlowError(f"flow {self.flow_id}: weight must be > 0, got {self.weight}")
        if self.aggregate < 1:
            raise FlowError(f"flow {self.flow_id}: aggregate must be >= 1")


class _IngressFlow:
    __slots__ = (
        "attachment",
        "controller",
        "pacer",
        "estimator",
        "seq",
        "losses",
        "active",
        "backlog",
    )

    def __init__(
        self,
        attachment: CsfqFlowAttachment,
        controller: RateController,
        estimator: ExponentialRateEstimator,
    ) -> None:
        self.attachment = attachment
        self.controller = controller
        self.pacer: PacedSender = None  # type: ignore[assignment]
        self.estimator = estimator
        self.seq = 0
        self.losses = 0
        self.active = False
        #: None = always backlogged; otherwise packets awaiting shaping.
        self.backlog: Optional[int] = None if attachment.backlogged else 0


class _EgressFlow:
    __slots__ = ("meter", "expected_seq", "lost", "ecn_marks", "delay")

    def __init__(self) -> None:
        self.meter = ThroughputMeter()
        self.expected_seq: Optional[int] = None
        self.lost = 0
        self.ecn_marks = 0
        #: One-way delay statistics (ingress shaping to egress delivery).
        self.delay = DelayTracker()


class CsfqEdge(Router):
    """An edge router of the CSFQ cloud (ingress + egress roles)."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        config: CsfqConfig,
        epoch_offset: Optional[float] = None,
        train_batch: int = 1,
    ) -> None:
        """``epoch_offset`` staggers this edge's first adaptation tick so
        that edges created together do not adapt in lockstep.

        ``train_batch = K > 1`` turns on the packet-train datapath (see
        :class:`repro.core.edge.CoreliteEdge`): shapers emit up to K
        members per firing as one :class:`~repro.sim.packet.PacketTrain`
        labeled with a single rate estimate.  Train runs are pinned
        *statistically* against scalar runs, not byte-for-byte; the
        default K = 1 stays byte-identical."""
        super().__init__(name)
        self.sim = sim
        self.config = config
        self._epoch_offset = epoch_offset
        if train_batch < 1:
            raise FlowError(f"train_batch must be >= 1, got {train_batch}")
        self._train_batch = int(train_batch)
        # Slot-indexed flow tables (see repro.core.edge): id -> slot maps
        # for control-plane lookups, dense lists for the hot sweeps.
        self._ingress_index: Dict[int, int] = {}
        self._ingress_flows: List[_IngressFlow] = []
        self._egress_index: Dict[int, int] = {}
        self._egress_flows: List[_EgressFlow] = []
        #: Attach-ordered sweep list of active ingress flows; rebuilt
        #: lazily after any start/stop transition.
        self._active_ingress: List[_IngressFlow] = []
        self._active_dirty = False
        self._epoch_task: Optional[PeriodicTask] = None
        #: Set by ``CsfqStrategy.make_edge``: ships loss notifications upstream.
        self.loss_channel: Optional[LossChannel] = None
        self.stray_notifications = 0

    # -- ingress role ---------------------------------------------------

    def attach_flow(self, attachment: CsfqFlowAttachment) -> None:
        if attachment.flow_id in self._ingress_index:
            raise FlowError(f"flow {attachment.flow_id} already attached at {self.name}")
        # CsfqConfig mirrors the adaptation fields of CoreliteConfig by
        # name, so the shared RateController drives CSFQ sources unchanged.
        estimator = ExponentialRateEstimator(self.config.k_flow, start_time=self.sim.now)
        scale = float(attachment.aggregate)
        train_batch = self._train_batch
        controller = RateController(
            self.config,  # type: ignore[arg-type]
            attachment.weight,
            start_time=self.sim.now,
            alpha_scale=scale,
            rate_scale=scale,
        )
        state = _IngressFlow(attachment, controller, estimator)
        state.pacer = PacedSender(
            self.sim,
            controller.rate,
            lambda s=state: self._emit(s),
            burst=self.config.shaper_burst,
            train_batch=train_batch,
            train_emit=(
                (lambda n, s=state: self._emit_train(s, n))
                if train_batch > 1
                else None
            ),
        )
        self._ingress_index[attachment.flow_id] = len(self._ingress_flows)
        self._ingress_flows.append(state)
        if self._epoch_task is None:
            self._epoch_task = self.sim.every(
                self.config.edge_epoch, self._epoch, first_delay=self._epoch_offset
            )

    def start_flow(self, flow_id: int) -> None:
        state = self._ingress_state(flow_id)
        if state.active:
            return
        state.active = True
        self._active_dirty = True
        state.controller.restart(self.sim.now)
        state.estimator.restart(self.sim.now)
        state.losses = 0
        state.pacer.set_rate(state.controller.rate)
        state.pacer.start()

    def stop_flow(self, flow_id: int) -> None:
        state = self._ingress_state(flow_id)
        if not state.active:
            return
        state.active = False
        self._active_dirty = True
        state.pacer.stop()

    def receive_loss_notify(self, packet: Packet) -> None:
        """Control-plane entry: egress-detected losses for one of our flows."""
        if packet.kind != PacketKind.LOSS_NOTIFY:
            raise FlowError(f"{self.name}: unexpected control packet {packet!r}")
        slot = self._ingress_index.get(packet.flow_id)
        state = self._ingress_flows[slot] if slot is not None else None
        if state is None or not state.active:
            self.stray_notifications += 1
            return
        state.losses += int(packet.label)

    def allotted_rate(self, flow_id: int) -> float:
        return self._ingress_state(flow_id).controller.rate

    def flow_active(self, flow_id: int) -> bool:
        """Whether the flow is currently transmitting."""
        return self._ingress_state(flow_id).active

    def ingress_flow_ids(self) -> Tuple[int, ...]:
        return tuple(self._ingress_index)

    def _ingress_state(self, flow_id: int) -> _IngressFlow:
        try:
            return self._ingress_flows[self._ingress_index[flow_id]]
        except KeyError:
            raise FlowError(f"{self.name}: unknown ingress flow {flow_id}") from None

    def deposit(self, flow_id: int, n: int = 1) -> None:
        """Offer ``n`` packets to a non-backlogged flow's shaper queue."""
        state = self._ingress_state(flow_id)
        if state.backlog is None:
            raise FlowError(
                f"{self.name}: flow {flow_id} is declared always-backlogged"
            )
        state.backlog += n
        state.pacer.kick()

    def backlog_of(self, flow_id: int) -> Optional[int]:
        """Pending packets awaiting shaping (None = always backlogged)."""
        return self._ingress_state(flow_id).backlog

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
            est.updates += 1
        elif gap == 0.0:
            est._pending += 1.0
            rate = est.rate
        else:
            raise SimulationError(f"rate estimator saw time go backwards ({gap})")
        label = rate / att.weight  # weighted CSFQ: labels are normalized
        packet = Packet(
            _DATA, att.flow_id, self.name, att.dst_edge,
            seq=state.seq, label=label, created_at=now, sim=self.sim,
        )
        state.seq += 1
        self.forward(packet)
        return True

    def _emit_train(self, state: _IngressFlow, allowance: int) -> int:
        """Train-mode pacer callback: emit up to ``allowance`` packets as
        one :class:`PacketTrain`.  Returns the member count actually sent
        (0 parks the shaper until a deposit kicks it).

        The rate estimator folds the batch as ``n`` evenly-spaced unit
        arrivals ending at ``now`` (:meth:`update_train`): the endpoint
        equals one lump fold (the exponential average is linear in
        load), and the intermediate rungs become per-member labels via
        ``member_labels``.  CSFQ cores drop against a window-lagged
        fair-share estimate, so during rate ramps each member must
        carry the label a scalar emitter would have stamped at its
        slot, or the whole train sees the ramp's largest label step and
        drop statistics skew high.  A split at a CSFQ admission point
        hands each member its own ladder rung.
        """
        att = state.attachment
        now = self.sim.now
        n = allowance
        if state.backlog is not None:
            backlog = state.backlog
            if backlog < 1:
                return 0
            if backlog < n:
                n = backlog
            state.backlog = backlog - n
        ladder = state.estimator.update_train(now, n)
        train = PacketTrain.build(
            att.flow_id, self.name, att.dst_edge, state.seq, n, now, sim=self.sim
        )
        w = att.weight  # weighted CSFQ: labels are normalized by weight
        train.label = ladder[-1] / w
        train.member_labels = tuple(label / w for label in ladder)
        state.seq += n
        self.forward(train)
        return n

    def _epoch(self) -> None:
        now = self.sim.now
        if self._active_dirty:
            # Attach order keeps the sweep sequence identical to the old
            # full-table scan, preserving replays.
            self._active_ingress = [s for s in self._ingress_flows if s.active]
            self._active_dirty = False
        for state in self._active_ingress:
            losses = state.losses
            state.losses = 0
            new_rate = state.controller.on_epoch(losses, now)
            state.pacer.set_rate(new_rate)

    # -- egress role -----------------------------------------------------

    def expect_flow(self, flow_id: int) -> None:
        if flow_id in self._egress_index:
            raise FlowError(f"flow {flow_id} already expected at {self.name}")
        self._egress_index[flow_id] = len(self._egress_flows)
        self._egress_flows.append(_EgressFlow())

    def delivered(self, flow_id: int) -> int:
        return self._egress_state(flow_id).meter.count

    def take_throughput(self, flow_id: int) -> float:
        return self._egress_state(flow_id).meter.take_rate(self.sim.now)

    def losses(self, flow_id: int) -> int:
        return self._egress_state(flow_id).lost

    def delay_stats(self, flow_id: int) -> DelayTracker:
        """One-way delay statistics for a flow delivered at this egress."""
        return self._egress_state(flow_id).delay

    def _egress_state(self, flow_id: int) -> _EgressFlow:
        try:
            return self._egress_flows[self._egress_index[flow_id]]
        except KeyError:
            raise FlowError(f"{self.name}: unknown egress flow {flow_id}") from None

    def _deliver_local(self, packet: Packet, link) -> None:
        slot = self._egress_index.get(packet.flow_id)
        state = self._egress_flows[slot] if slot is not None else None
        if state is None:
            raise FlowError(
                f"{self.name}: packet for unexpected flow {packet.flow_id} "
                f"(call expect_flow first)"
            )
        if packet.kind is not PacketKind.DATA:
            return
        if packet.count != 1:
            self._deliver_train(state, packet, link)
            return
        if state.expected_seq is not None and packet.seq > state.expected_seq:
            gap = packet.seq - state.expected_seq
            state.lost += gap
            self._report_loss(packet, gap)
        if packet.ecn:
            # DECbit-style marking: a congestion indication without a loss
            # (only set by the ABL-AQM DecbitQueue; CSFQ itself drops).
            state.ecn_marks += 1
            self._report_loss(packet, 1)
        state.expected_seq = packet.seq + 1
        state.meter.record()
        state.delay.record(max(0.0, self.sim.now - packet.created_at))

    def _deliver_train(self, state: _EgressFlow, train: Packet, link) -> None:
        """Egress sweep for a whole train: one pass of bulk bookkeeping.

        The loss detector works off the head sequence number exactly as
        it would for the head member arriving alone (one LOSS_NOTIFY with
        the gap count), then advances past the tail — members are
        contiguous, so no intra-train gap is possible.  ECN-capable AQMs
        are non-plain-FIFO queues, so marked packets always arrive as
        scalars; trains never carry ``ecn``.
        """
        n = train.count
        head = train.seq
        expected = state.expected_seq
        if expected is not None and head > expected:
            gap = head - expected
            state.lost += gap
            self._report_loss(train, gap)
        state.expected_seq = head + n
        state.meter.record(n)
        # Members left the last link one serialization time apart (a train
        # handed over without a link, in unit tests, has no spacing).
        spacing = 0.0 if link is None else 1.0 / link.bandwidth_pps
        state.delay.record_train(max(0.0, self.sim.now - train.created_at), n, spacing)

    def _report_loss(self, packet: Packet, gap: int) -> None:
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

    def receive(self, packet: Packet, link) -> None:
        if packet.dst == self.name:
            self._deliver_local(packet, link)
        else:
            self.forward(packet)
