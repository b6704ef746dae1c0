"""The edge router: what both schemes share, and Corelite's (paper §2.2,
steps 1 and 3).

:class:`EdgeRouter` is what an edge *is* under either scheme — the paper's §4
gives Corelite and weighted CSFQ "similar rate adaptation schemes" at the
edges and a different congestion signal: slot tables of per-flow state, a
:class:`~repro.core.adaptation.RateController` and a paced shaper per
ingress flow, start / stop / deposit, the per-epoch sweep list, and per
egress flow the delivery meter, the delay tracker and one reorder-safe
sequence-gap loss detector.  A scheme's edge (:class:`CoreliteEdge` here,
:class:`repro.csfq.edge.CsfqEdge`) adds its per-flow state, what it stamps
on a packet, what it counts per epoch and how that count reaches it.

A Corelite edge router plays two roles:

* **Ingress** for the flows entering the cloud through it: it shapes each
  flow to its allowed rate ``bg(f)`` with a :class:`~repro.core.shaping.
  PacedSender`, injects markers via :class:`~repro.core.marking.
  MarkerInjector` (as two header fields of the data packet, not as packets),
  collects feedback markers echoed by core routers, and
  once per edge epoch runs the :class:`~repro.core.adaptation.
  RateController` on the **max** per-core feedback count.
* **Egress** for the flows leaving through it: it meters delivered packets
  (the paper's cumulative-service curves), absorbs markers, and tracks
  sequence gaps so experiments can report losses.

The edge is the only place with per-flow state, which is the Diffserv
premise Corelite is built on: "it is feasible to maintain a restricted
amount of per-flow state" at the fringes (§1).

Hot frames
----------
A scalar packet costs one frame at each end: ``_emit`` builds it
positionally with ``MarkerInjector.on_data`` and the single-path hit of
``Router.forward`` inline (``forward`` still serves multipath, unrouted
packets and extra markers), and ``receive`` records it with the loss
detector, the meter and ``DelayTracker.record`` inline; no builtin ``min``
/ ``max`` runs.  A train costs the same: ``_emit_train`` builds its
``PacketTrain`` positionally, calls
``MarkerInjector.on_train`` and takes the same inline route hit, and
``receive`` records its ``n = count`` members in the same frame, through
``DelayTracker.record_train`` (``_deliver_local`` keeps markers and unknown
flows).  The egress only records, so the edge is a ``quiet_sink``
(:mod:`repro.sim.link`, "Sinks"): ``receive`` is told the delivery instant
and every read of egress state settles ``inbox`` first.  What these frames
produce is pinned by the contract table (``tests/contract``), which
replays under the per-packet reference (``tests/reference.py``).

Epoch frames
------------
A flow-epoch is one pass of ``EdgeRouter._epoch``, both schemes' sweep:
it takes the flow's ``signal`` (here the max per-link marker count, at a
CSFQ edge the loss count) and calls ``RateController.on_epoch`` (one frame
past slow start), ``PacedSender.set_rate`` (which re-prices a parked shaper
inline) and, only for a shaper parked on this epoch, ``release``; the
active list and the fence hand-off are read and taken in the sweep itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import Dict, Optional, Tuple

from repro.core.adaptation import Phase, RateController
from repro.core.config import CoreliteConfig, EdgeConfig
from repro.core.marking import MarkerInjector
from repro.core.shaping import PacedSender
from repro.errors import FlowError
from repro.sim.delay import DelayTracker
from repro.sim.estimators import ExponentialRateEstimator
from repro.sim.engine import EventHandle, PeriodicTask, Simulator
from repro.sim.monitor import ThroughputMeter
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind, PacketTrain

__all__ = ["FlowAttachment", "EdgeRouter", "CoreliteEdge"]

#: Localized enum members for the per-packet egress tests.
_DATA = PacketKind.DATA
_MARKER = PacketKind.MARKER
_SLOW_START = Phase.SLOW_START


@dataclass(frozen=True)
class FlowAttachment:
    """Declaration of one edge-to-edge flow at its ingress edge, of either
    scheme (``min_rate`` and ``external`` are Corelite edge features; a
    :class:`repro.csfq.edge.CsfqEdge` refuses them).

    ``min_rate`` is an optional minimum rate contract: the edge never
    throttles the flow below it (0 means pure best-effort weighted share).
    ``backlogged`` declares the paper's always-has-packets source; set it
    False for flows fed by a traffic source via :meth:`EdgeRouter.
    deposit` — the shaper then only sends when backlog is available.
    ``external`` declares a flow whose packets *arrive* at the edge from
    an end host (e.g. TCP): the edge buffers up to ``shaper_buffer`` of
    them, drains the buffer at ``bg(f)`` preserving the packets (their
    sequence numbers belong to the transport), and drops the excess — the
    paper's "drop packets from ill behaved flows at the edges".
    """

    flow_id: int
    weight: float
    dst_edge: str
    min_rate: float = 0.0
    backlogged: bool = True
    external: bool = False
    shaper_buffer: int = 40
    #: Number of same-(path, weight) always-backlogged member flows this
    #: attachment stands for.  ``weight``/``min_rate`` are the *bucket
    #: totals* (member x N); the marker interval is computed from the
    #: member weight so the feedback density matches N individual flows,
    #: and the controller gains are scaled accordingly (see RateController).
    aggregate: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise FlowError(f"flow {self.flow_id}: weight must be > 0, got {self.weight}")
        if self.min_rate < 0:
            raise FlowError(f"flow {self.flow_id}: min_rate must be >= 0")
        if self.external and self.backlogged:
            raise FlowError(
                f"flow {self.flow_id}: an external flow cannot be always-backlogged"
            )
        if self.shaper_buffer < 1:
            raise FlowError(f"flow {self.flow_id}: shaper_buffer must be >= 1")
        if self.aggregate < 1:
            raise FlowError(f"flow {self.flow_id}: aggregate must be >= 1")
        if self.aggregate > 1 and not self.backlogged:
            raise FlowError(
                f"flow {self.flow_id}: an aggregate bucket is backlogged"
            )


class _IngressFlow:
    """Per-flow ingress state: controller + pacer + injector + feedback."""

    __slots__ = (
        "attachment",
        "controller",
        "pacer",
        "injector",
        "seq",
        "feedback",
        "signal",
        "active",
        "started_times",
        "backlog",
        "rate_estimator",
        "ext_queue",
        "shaper_drops",
        "fence",
    )
    #: The flow's shaper, wired by ``EdgeRouter._attach``.
    pacer: PacedSender

    def __init__(
        self,
        attachment: FlowAttachment,
        controller: RateController,
        injector: MarkerInjector,
    ) -> None:
        self.attachment = attachment
        self.controller = controller
        self.injector = injector
        self.seq = 0
        #: feedback marker counts in the current epoch, keyed by core link;
        #: stale while ``signal`` is 0 (``receive_feedback`` clears it then).
        self.feedback: Dict[str, int] = {}
        #: The epoch's ``m(f)``, the bottleneck's count (§2.2): the running max
        #: of its per-link counts (they only grow within an epoch, so it equals
        #: ``max(feedback.values())`` and the sweep never scans the dict).
        self.signal = 0
        self.active = False
        self.started_times = 0
        #: None = always backlogged; otherwise packets awaiting shaping.
        self.backlog: Optional[int] = None if attachment.backlogged else 0
        #: For non-backlogged flows the marker label must reflect the
        #: *actual* transmission rate (which can sit below bg), so it is
        #: measured; for backlogged flows the shaped rate equals bg.
        self.rate_estimator: Optional[ExponentialRateEstimator] = (
            None if attachment.backlogged else ExponentialRateEstimator(k=0.1)
        )
        #: External (host-originated) packets awaiting shaping.
        self.ext_queue: Optional[deque] = deque() if attachment.external else None
        #: External packets dropped because the shaper buffer was full.
        self.shaper_drops = 0
        #: The shaper ``fence`` the plan gives a release candidate (``_epoch``).
        self.fence: Optional[EventHandle] = None


class _EgressFlow:
    """Per-flow egress state: delivery metering and gap-based loss count."""

    __slots__ = (
        "meter",
        "markers_received",
        "expected_seq",
        "lost",
        "delay",
    )

    def __init__(self) -> None:
        self.meter = ThroughputMeter()
        self.markers_received = 0
        self.expected_seq: Optional[int] = None
        self.lost = 0
        #: One-way delay statistics (ingress shaping to egress delivery).
        self.delay = DelayTracker()


class EdgeRouter(Router):
    """An edge router of either scheme (ingress + egress roles): everything
    but the congestion signal.  A subclass supplies ``egress_flow`` (its
    per-flow egress record: ``meter``, ``expected_seq``, ``lost``, ``delay``
    plus its own), ``attach_flow`` (build its ingress record, hand it to
    :meth:`_attach`), ``start_flow``, the shaper callback ``_emit(state)``
    and ``receive``; its ingress record counts the epoch's signal in
    ``signal``, which the shared ``_epoch`` reads and zeroes.
    """

    egress_flow: type
    #: Members per shaper firing: 1, the scalar datapath, but at a
    #: :class:`CoreliteEdge` built with ``train_batch``.
    train_batch = 1

    def __init__(
        self,
        name: str,
        sim: Simulator,
        config: EdgeConfig,
        epoch_offset: Optional[float] = None,
    ) -> None:
        """``epoch_offset`` staggers this edge's first adaptation tick so
        that edges created together do not adapt in lockstep (see
        :meth:`repro.sim.engine.Simulator.every`)."""
        super().__init__(name)
        self.sim = sim
        self.config = config
        self._epoch_offset = epoch_offset
        # Slot-indexed flow tables: the id -> slot maps are touched once
        # per control-plane packet, while the per-epoch adaptation sweep
        # and the per-packet egress path index dense lists.  Slots are
        # assigned at attach time and never reused.
        self._ingress_index: Dict[int, int] = {}
        self._ingress_flows: list = []
        self._egress_index: Dict[int, int] = {}
        self._egress_flows: list = []
        #: Dense attach-ordered sweep list of the currently active ingress
        #: flows; rebuilt lazily after any start/stop transition so the
        #: epoch sweep does not re-test ``active`` per flow per epoch.
        self._active_ingress: list = []
        self._active_dirty = False
        self._epoch_task: Optional[PeriodicTask] = None

    # -- ingress role ---------------------------------------------------

    def _controller(self, attachment: FlowAttachment) -> RateController:
        """The flow's slow-start + LIMD controller, floored at its contract
        (or the config's floor) and with an aggregate bucket's gains."""
        scale = float(attachment.aggregate)
        return RateController(
            self.config,
            attachment.weight,
            start_time=self.sim.now,
            min_rate=max(self.config.min_rate, attachment.min_rate),
            alpha_scale=scale,
            rate_scale=scale,
        )

    def _attach(self, state, train_batch: int = 1) -> None:
        """Give a new ingress record its shaper and slot (it starts stopped);
        ``train_batch > 1`` wires the shaper to ``_emit_train``."""
        flow_id = state.attachment.flow_id
        if flow_id in self._ingress_index:
            raise FlowError(f"flow {flow_id} already attached at {self.name}")
        state.pacer = PacedSender(
            self.sim,
            state.controller.rate,
            partial(self._emit, state),
            train_batch=train_batch,
            train_emit=partial(self._emit_train, state) if train_batch > 1 else None,
        )
        self._ingress_index[flow_id] = len(self._ingress_flows)
        self._ingress_flows.append(state)
        if self._epoch_task is None:
            self._epoch_task = self.sim.every(
                self.config.edge_epoch, self._epoch, first_delay=self._epoch_offset
            )

    def _epoch(self) -> None:
        """The edge epoch of either scheme (paper §2.2, step 3; module
        docstring, "Epoch frames"; :mod:`repro.core.shaping`, "Releases")."""
        if self._active_dirty:
            # Attach order, not start order: the sweep visits flows as a
            # full-table scan would, so replays keep their event sequence.
            self._active_ingress = [s for s in self._ingress_flows if s.active]
            self._active_dirty = False
        now = self.sim.now
        epoch = now + self._epoch_task.interval  # the float ``PeriodicTask`` re-arms to
        for state in self._active_ingress:
            m = state.signal
            if m:
                state.signal = 0
            pacer = state.pacer
            pacer.set_rate(state.controller.on_epoch(m, now))
            if pacer.fence is not None:
                if pacer._due is not None:  # parked on this epoch
                    pacer.release(epoch)
            elif state.fence is not None and state.controller.phase is not _SLOW_START:
                link = self.route_for(state.attachment.dst_edge)  # ``Link._wire`` voids it
                if link is None or link._hold < inf:
                    pacer.fence = state.fence

    def stop_flow(self, flow_id: int) -> None:
        """Stop a flow; its allowed-rate state is discarded on restart."""
        state = self._ingress_state(flow_id)
        if not state.active:
            return
        state.active = False
        self._active_dirty = True
        state.pacer.stop()

    def allotted_rate(self, flow_id: int) -> float:
        """The flow's current allowed rate ``bg(f)`` (the paper's y-axis)."""
        return self._ingress_state(flow_id).controller.rate

    def flow_active(self, flow_id: int) -> bool:
        """Whether the flow is currently transmitting."""
        return self._ingress_state(flow_id).active

    def ingress_flow_ids(self) -> Tuple[int, ...]:
        return tuple(self._ingress_index)

    def _ingress_state(self, flow_id: int):
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

    # -- egress role -----------------------------------------------------

    def expect_flow(self, flow_id: int) -> None:
        """Declare a flow whose egress is this edge."""
        if flow_id in self._egress_index:
            raise FlowError(f"flow {flow_id} already expected at {self.name}")
        self._egress_index[flow_id] = len(self._egress_flows)
        self._egress_flows.append(self.egress_flow())

    def delivered(self, flow_id: int) -> int:
        """Cumulative data packets delivered for ``flow_id`` (Figure 4)."""
        return self._egress_state(flow_id).meter.count

    def take_throughput(self, flow_id: int) -> float:
        """Delivered rate since the last call (pkt/s)."""
        return self._egress_state(flow_id).meter.take_rate(self.sim.now)

    def losses(self, flow_id: int) -> int:
        """Sequence-gap loss count observed at this egress."""
        return self._egress_state(flow_id).lost

    def delay_stats(self, flow_id: int) -> DelayTracker:
        """One-way delay statistics for a flow delivered at this egress."""
        return self._egress_state(flow_id).delay

    def _egress_state(self, flow_id: int):
        if self.inbox:  # every read of egress state: booked deliveries first
            self.sim.settle(self.inbox)
        try:
            return self._egress_flows[self._egress_index[flow_id]]
        except KeyError:
            raise FlowError(f"{self.name}: unknown egress flow {flow_id}") from None

    @staticmethod
    def _sequence_gap(state, seq: int, n: int = 1) -> int:
        """The egress loss detector, for ``n`` contiguous packets from
        ``seq``: how many packets this arrival shows missing (0 in order).

        A jump ahead books the gap as lost.  An arrival from behind is a
        packet that was overtaken (multipath reordering), not a loss and not
        a restart — no edge rewinds ``seq`` — so ``expected_seq`` never
        moves back and ``lost`` gives back what the jump over it booked.
        """
        expected = state.expected_seq
        if expected is None:
            expected = seq
        if seq >= expected:
            state.lost += seq - expected
            state.expected_seq = seq + n
            return seq - expected
        state.lost = max(0, state.lost - n)
        return 0


class CoreliteEdge(EdgeRouter):
    """An edge router of the Corelite cloud (ingress + egress roles)."""

    #: The egress role only records (:mod:`repro.sim.link`, "Sinks").
    quiet_sink = True
    egress_flow = _EgressFlow

    def __init__(
        self,
        name: str,
        sim: Simulator,
        config: CoreliteConfig,
        epoch_offset: Optional[float] = None,
        train_batch: int = 1,
    ) -> None:
        """See :class:`EdgeRouter`.  ``train_batch = K > 1`` turns on the
        packet-train datapath: each shaper firing emits up to K back-to-back
        packets as one :class:`~repro.sim.packet.PacketTrain` (statistically
        pinned; K = 1 keeps the scalar per-packet emission byte-identical).
        External (host-originated) flows stay scalar under it — their
        packets pre-exist with transport-owned sequence numbers."""
        super().__init__(name, sim, config, epoch_offset)
        if train_batch < 1:
            raise FlowError(f"train_batch must be >= 1, got {train_batch}")
        self.train_batch = int(train_batch)
        #: Feedback packets that arrived for unknown/stopped flows.
        self.stray_feedback = 0
        #: External packets that arrived while their flow was stopped.
        self.shaper_drops_inactive = 0

    # -- ingress role ---------------------------------------------------

    def attach_flow(self, attachment: FlowAttachment) -> None:
        """Declare a flow whose ingress is this edge (it starts stopped)."""
        # The marker interval uses the *member* weight: an N-flow bucket
        # must emit markers as densely as N individual flows would, or
        # the core's feedback (and thus the LIMD decrease) goes sparse
        # and fairness coarsens.  For aggregate=1 this is weight exactly.
        member_weight = attachment.weight / attachment.aggregate
        injector = MarkerInjector(self.config.marker_interval(member_weight))
        state = _IngressFlow(attachment, self._controller(attachment), injector)
        # Train datapath: internally-sourced flows coalesce departures;
        # external flows keep scalar emission (their packets pre-exist).
        self._attach(state, 1 if attachment.external else self.train_batch)

    def start_flow(self, flow_id: int) -> None:
        """(Re)start a flow: fresh slow-start, pacing begins immediately."""
        state = self._ingress_state(flow_id)
        if state.active:
            return
        state.active = True
        self._active_dirty = True
        state.started_times += 1
        if state.started_times > 1:
            state.controller.restart(self.sim.now)
            state.injector.reset()
        state.signal = 0
        state.pacer.set_rate(state.controller.rate)
        state.pacer.fence = None  # slow start (:mod:`repro.core.shaping`, "Releases")
        state.pacer.start()

    def receive_feedback(self, packet: Packet) -> None:
        """Control-plane entry point for feedback markers from the core."""
        if packet.kind != PacketKind.FEEDBACK:
            raise FlowError(f"{self.name}: non-feedback packet on control plane: {packet!r}")
        slot = self._ingress_index.get(packet.flow_id)
        state = self._ingress_flows[slot] if slot is not None else None
        if state is None or not state.active:
            self.stray_feedback += 1
            return
        source = packet.feedback_from or "?"
        feedback = state.feedback
        if not state.signal:  # the first feedback since an epoch took the count
            feedback.clear()
        # A batched feedback packet (core epoch coalescing) carries its
        # logical marker count in ``seq``; per-marker feedback has seq 0.
        count = feedback.get(source, 0) + (packet.seq if packet.seq > 0 else 1)
        feedback[source] = count
        if count > state.signal:
            state.signal = count

    def backlog_of(self, flow_id: int) -> Optional[int]:
        ext_queue = self._ingress_state(flow_id).ext_queue
        return super().backlog_of(flow_id) if ext_queue is None else len(ext_queue)

    def shaper_drops_of(self, flow_id: int) -> int:
        """External packets dropped at this edge's shaper buffer."""
        return self._ingress_state(flow_id).shaper_drops

    def _shape_in(self, state: _IngressFlow, packet: Packet) -> None:
        """An external (host-originated) packet arrives for shaping."""
        assert state.ext_queue is not None
        if not state.active:
            self.shaper_drops_inactive += 1
            return
        if len(state.ext_queue) >= state.attachment.shaper_buffer:
            state.shaper_drops += 1
            return
        state.ext_queue.append(packet)
        state.pacer.kick()

    def _emit(self, state: _IngressFlow) -> bool:
        """Pacer callback: send one data packet (+ marker when due).

        Returns False (the shaper parks) when the flow has nothing to
        send; deposits kick the shaper awake.
        """
        att = state.attachment
        sim = self.sim
        now = sim.now
        name = self.name
        if state.ext_queue is not None:
            if not state.ext_queue:
                return False  # no host packet buffered
            packet = state.ext_queue.popleft()
        else:
            if state.backlog is not None:
                if state.backlog < 1:
                    return False  # nothing deposited yet
                state.backlog -= 1
            packet = Packet(
                _DATA, att.flow_id, name, att.dst_edge, 1.0, state.seq, None, 0.0, now, sim
            )
            state.seq += 1
        size = packet.size
        if state.rate_estimator is not None:
            state.rate_estimator.update(now, size)
        injector = state.injector
        credit = injector._credit + size
        interval = injector.interval
        due = 0
        while credit >= interval:
            credit -= interval
            due += 1
        injector._credit = credit
        if due:
            injector.markers_emitted += due
            # The marker carries the *out-of-profile* normalized rate: the
            # portion above the contracted minimum, per unit weight.  With
            # no contract this is the paper's plain rn = bg/w; with one,
            # in-profile traffic does not compete in the fairness of the
            # excess (otherwise a floored flow would soak up all feedback
            # that can never throttle it, deadlocking the control loop).
            # Non-backlogged flows can transmit below bg, so their actual
            # (measured) rate is what the marker must reflect.
            rate = state.controller.rate
            if state.rate_estimator is not None and state.rate_estimator.rate < rate:
                rate = state.rate_estimator.rate
            label = (rate - att.min_rate if rate > att.min_rate else 0.0) / att.weight
            # The marker is a field of its data packet (``origin_edge``
            # doubles as the "marker aboard" flag), parted from it only
            # where the two could fare differently (``repro.sim.link``).
            packet.origin_edge = name
            packet.label = label
            for _ in range(due - 1):
                # Sub-unit marker intervals (member weight < 1) can owe
                # several markers per packet; extras stay standalone.
                self.forward(
                    Packet.marker(att.flow_id, name, att.dst_edge, label, now, sim=sim)
                )
        dst = packet.dst
        link = self._routes.get(dst)
        if link is None and dst in self._reach and dst != name:
            link = self._uplink
        if link is None or self.multipath:
            self.forward(packet)
        else:
            link.send(packet)
        return True

    def _emit_train(self, state: _IngressFlow, allowance: int) -> int:
        """Train-mode pacer callback: emit up to ``allowance`` packets as
        one :class:`PacketTrain`.  Returns the member count actually sent
        (0 parks the shaper until a deposit kicks it).

        Marker bookkeeping matches ``allowance`` scalar emissions: the
        injector advances once per member and due markers ride the train
        (``marker_count``, at most one per member).
        """
        att = state.attachment
        sim = self.sim
        now = sim.now
        name = self.name
        n = allowance
        if state.backlog is not None:
            backlog = state.backlog
            if backlog < 1:
                return 0
            if backlog < n:
                n = backlog
            state.backlog = backlog - n
        train = PacketTrain(att.flow_id, name, att.dst_edge, state.seq, n, now, 0.0, sim)
        state.seq += n
        if state.rate_estimator is not None:
            state.rate_estimator.update(now, float(n))
        due = state.injector.on_train(n)
        if due:
            rate = state.controller.rate
            if state.rate_estimator is not None and state.rate_estimator.rate < rate:
                rate = state.rate_estimator.rate
            label = (rate - att.min_rate if rate > att.min_rate else 0.0) / att.weight
            aboard = due if due <= n else n
            train.origin_edge = name
            train.label = label
            train.marker_count = aboard
            for _ in range(due - aboard):
                self.forward(Packet.marker(att.flow_id, name, att.dst_edge, label, now, sim=sim))
        dst = att.dst_edge  # ``Router.forward``'s single-path hit, inline
        link = self._routes.get(dst)
        if link is None and dst in self._reach and dst != name:
            link = self._uplink
        if link is None or self.multipath:
            self.forward(train)
        else:
            link.send(train)
        return n

    # -- egress role -----------------------------------------------------

    def _deliver_local(self, packet: Packet) -> None:
        """What is addressed to this edge other than the data packets and
        trains of an expected flow, which ``receive`` records itself."""
        slot = self._egress_index.get(packet.flow_id)
        if slot is None:
            raise FlowError(
                f"{self.name}: packet for unexpected flow {packet.flow_id} "
                f"(call expect_flow first)"
            )
        if packet.kind is _MARKER:
            self._egress_flows[slot].markers_received += 1

    # -- shared receive path -------------------------------------------------

    def receive(self, packet: Packet, link, at: Optional[float] = None) -> None:
        """``at``: the delivery instant of a packet off the sink ledger,
        which settles late.  An event hands its packet over at ``sim.now``,
        behind whatever was booked before it."""
        if at is None:
            if self.inbox:
                self.sim.settle(self.inbox)
            at = self.sim.now
        if packet.dst == self.name:
            slot = self._egress_index.get(packet.flow_id)
            if slot is None or packet.kind is not _DATA:
                self._deliver_local(packet)
                return
            # The egress record of a data packet or a train of ``n``
            # contiguous members, in this frame.
            state = self._egress_flows[slot]
            n = packet.count
            if packet.origin_edge is not None:
                # Markers rode this data packet (``marker_count`` is 1 for
                # every scalar packet; a train may carry up to ``n``).
                state.markers_received += packet.marker_count
            seq = packet.seq  # ``_sequence_gap``, inline
            expected = state.expected_seq
            if expected is None:
                expected = seq
            if seq >= expected:
                state.lost += seq - expected
                state.expected_seq = seq + n
            elif state.lost:
                state.lost = state.lost - n if state.lost > n else 0
            state.meter.count += n
            delay = at - packet.created_at if at > packet.created_at else 0.0
            if n == 1:
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
            else:
                # Members left the last link one serialization time apart
                # (a train handed over without a link has no spacing).
                spacing = 0.0 if link is None else 1.0 / link.bandwidth_pps
                state.delay.record_train(delay, n, spacing)
            return
        if packet.kind is _DATA:
            # Ingress role for external flows: host-originated packets are
            # buffered and shaped rather than forwarded at arrival rate.
            in_slot = self._ingress_index.get(packet.flow_id)
            if in_slot is not None:
                ingress_state = self._ingress_flows[in_slot]
                if ingress_state.ext_queue is not None:
                    self._shape_in(ingress_state, packet)
                    return
            # Egress role for transit flows (destination is an end host
            # behind this edge): meter deliveries on the way through.
            out_slot = self._egress_index.get(packet.flow_id)
            if out_slot is not None:
                egress_state = self._egress_flows[out_slot]
                egress_state.meter.record(packet.count)
                created = packet.created_at
                egress_state.delay.record(at - created if at > created else 0.0)
                if packet.origin_edge is not None:
                    # The marker aboard ends here; the host gets bare data.
                    egress_state.markers_received += 1
                    packet.origin_edge = None
        elif packet.kind is _MARKER and packet.flow_id in self._egress_index:
            # Parted from an external flow's packet, hence addressed to its
            # end host: it too ends at the flow's egress edge.
            self._egress_flows[self._egress_index[packet.flow_id]].markers_received += 1
            return
        self.forward(packet)
