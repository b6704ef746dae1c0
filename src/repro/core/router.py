"""The Corelite core router (paper §2.2 step 2, §3).

Data packets get the "standard forwarding behavior" — a route lookup and a
FIFO enqueue, nothing else.  Markers — aboard a data packet, or parted
from it as a zero-size packet — are additionally *observed* by the
feedback mechanism attached to the output link they are about to join.
Once per congestion epoch, each Corelite-enabled output link:

1. reads the epoch's time-averaged queue length ``qavg`` and resets the
   averaging window,
2. asks the :class:`~repro.core.congestion.CongestionDetector` for the
   number of feedback markers ``Fn`` (0 when ``qavg <= qthresh``),
3. hands ``Fn`` to the marker-selection mechanism — the marker cache sends
   feedback immediately from its history; the selective scheme arms its
   selection probability ``pw`` for the markers of the next epoch.

A last core hop may reach ``receive`` at its in-link's send, its instant as
``at`` (:mod:`repro.sim.link`, "Pass-through"), and is handled at ``at``.

Feedback markers are echoed to the edge router named in the marker's
return address via the control plane.  The router never looks at flow
identity, weights, or rates: it is flow-stateless (the cache variant keeps
a bounded marker history; the selective variant keeps two scalars).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.cache_feedback import MARKER_CACHE_SIZE, MarkerCacheFeedback
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.core.congestion import CongestionDetector, make_estimator
from repro.core.selective_feedback import SelectiveFeedback
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngRegistry

__all__ = ["CoreliteCoreRouter"]

#: Callback delivering a FEEDBACK packet to the edge named in ``packet.dst``.
FeedbackSender = Callable[[Packet], None]

Selector = Union[MarkerCacheFeedback, SelectiveFeedback]

#: Localized enum members: this test runs once per received packet, and a
#: per-marker feedback packet is built once per selected marker.
_DATA = PacketKind.DATA
_FEEDBACK = PacketKind.FEEDBACK


class _LinkMachinery:
    """Congestion estimator + marker selector for one output link."""

    __slots__ = (
        "link",
        "estimator",
        "selector",
        "qavg_last",
        "task",
        "parked_at",
        "on_backlog",
        "park_t",
        "park_next",
        "park_counts",
        "park_pending",
    )

    def __init__(self, link: Link, estimator: CongestionDetector, selector: Selector) -> None:
        self.link = link
        self.estimator = estimator
        self.selector = selector
        self.qavg_last = 0.0
        #: The epoch timer; replaced on every unpark.
        self.task = None
        #: Fire time of the epoch that parked the timer (None = running).
        self.parked_at: Optional[float] = None
        #: Unparks this machinery; handed to ``Link.watch_backlog``.
        self.on_backlog = None
        #: Virtual epoch grid while parked: the last passed boundary, the
        #: next one, the marker count of each fully elapsed epoch (to
        #: replay the selector's per-epoch folds on unpark) and the count
        #: of the current partial epoch.
        self.park_t = 0.0
        self.park_next = 0.0
        self.park_counts: list = []
        self.park_pending = 0

    @property
    def parked(self) -> bool:
        """Whether the link's epoch timer is currently parked (idle)."""
        return self.parked_at is not None


class CoreliteCoreRouter(Router):
    """A flow-stateless core router with weighted fair marker feedback."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        config: CoreliteConfig,
        rng: RngRegistry,
        send_feedback: FeedbackSender,
        batch_feedback: bool = False,
    ) -> None:
        """``batch_feedback`` coalesces the feedback one output link
        selects during one congestion epoch into a single counted
        FEEDBACK packet per (flow, edge), flushed at the epoch boundary
        (the batched control plane — all the builder's ``vectorized``
        flag means).  The edge credits the packet's ``seq`` as
        its marker count, so the LIMD sees the same per-epoch totals with
        feedback arrival quantized to the core epoch."""
        super().__init__(name)
        self.sim = sim
        self.config = config
        self._rng = rng
        self._send_feedback = send_feedback
        self._batch_feedback = batch_feedback
        #: Per-link pending batched feedback: (flow, edge) -> [count, label].
        self._fb_buffers: Dict[str, Dict[Tuple[int, str], list]] = {}
        self._machinery: Dict[Link, _LinkMachinery] = {}
        self.feedback_emitted = 0

    # -- setup -----------------------------------------------------------

    def enable_on_link(self, link: Link) -> _LinkMachinery:
        """Attach congestion detection + marker feedback to an output link."""
        if link.src_name != self.name:
            raise ConfigurationError(
                f"{self.name}: link {link.name} does not originate here"
            )
        if link in self._machinery:
            raise ConfigurationError(f"{self.name}: {link.name} already enabled")
        if not self.config.qthresh < link.queue.capacity:
            raise ConfigurationError(
                f"{self.name}: qthresh ({self.config.qthresh}) must be below "
                f"{link.name}'s queue capacity ({link.queue.capacity}) or "
                "congestion is detected only at loss"
            )
        estimator = make_estimator(self.config, link.bandwidth_pps)
        emit = self._make_emitter(link.name)
        selector: Selector
        # The selection stream is taken at its first draw: access links
        # are never congested, and seeding a generator for each is a
        # third of a dense cloud's ``RngRegistry.stream`` calls.
        if self.config.feedback_scheme is FeedbackScheme.MARKER_CACHE:
            selector = MarkerCacheFeedback(
                MARKER_CACHE_SIZE,
                partial(self._rng.stream, f"cache:{link.name}"),
                emit,
            )
        else:
            selector = SelectiveFeedback(
                partial(self._rng.stream, f"selective:{link.name}"),
                emit,
            )
        machinery = _LinkMachinery(link, estimator, selector)
        machinery.on_backlog = lambda m=machinery: self._unpark(m)
        self._machinery[link] = machinery
        link.queue.reset_window(self.sim.now)
        # Randomized phase: real routers' epoch clocks are unsynchronized,
        # and lockstep congestion epochs amplify rate oscillations.
        offset = self._rng.stream(f"epoch:{link.name}").uniform(
            0.0, self.config.core_epoch
        )
        machinery.task = self.sim.every(
            self.config.core_epoch,
            lambda m=machinery: self._epoch(m),
            first_delay=offset,
        )
        return machinery

    def machinery_for(self, link_name: str) -> Optional[_LinkMachinery]:
        """The estimator/selector pair of an enabled link (for tests)."""
        return next((m for link, m in self._machinery.items() if link.name == link_name), None)

    def flow_state_entries(self) -> int:
        """Per-flow state entries held by this router — the paper's whole
        point is that this does not grow with the number of flows.

        The selective scheme keeps two scalars per link (``rav``, ``wav``)
        and no flow entries at all; the marker cache holds a *bounded*
        marker history (its size is a config constant, not a flow count).
        """
        total = 0
        for machinery in self._machinery.values():
            selector = machinery.selector
            if isinstance(selector, MarkerCacheFeedback):
                total += len(selector)  # bounded by MARKER_CACHE_SIZE
        return total

    def enabled_links(self) -> Tuple[str, ...]:
        return tuple(link.name for link in self._machinery)

    # -- data path --------------------------------------------------------

    def receive(self, packet: Packet, link: Link, at: Optional[float] = None) -> None:
        origin = packet.origin_edge
        if self.multipath:
            if (origin is not None and packet.kind is _DATA
                    and self._flowlet_packets and type(packet) is Packet):
                # The data packet may close its flowlet, and the marker
                # trailing it would take the next one's path: part them.
                marker = packet.detach_marker(self.sim)
                self.receive(packet, link, at)
                packet = marker
            out_link = self.route_for_packet(packet)
        else:
            out_link = self._routes.get(packet.dst)
            if out_link is None:
                # Not a table hit: a core down to one live out-link holds
                # an uplink instead, and must still observe its markers.
                out_link = self.route_for(packet.dst)
        if out_link is None:
            # Defer to forward() for the drop-vs-raise decision.  (Safe
            # under multipath: a None here means no candidate set either,
            # so forward() cannot advance the flowlet counter twice.)
            self.forward(packet)
            return
        if origin is None:  # plain data: standard forwarding
            out_link.send(packet, at)
            return
        # The selector observes a marker aboard as it would one trailing the
        # packet: after the packet has been offered to the link — which may
        # part the two (``repro.sim.link``), so the fields are read first.
        carrier = packet.kind is _DATA  # a train may carry several markers
        label = packet.label
        markers = packet.marker_count
        if carrier:
            out_link.send(packet, at)
        machinery = self._machinery.get(out_link)
        if machinery is not None:
            now = self.sim.now if at is None else at
            if machinery.parked_at is not None:
                self._note_parked_marker(machinery, markers, now)
            machinery.selector.observe(packet.flow_id, origin, label, now, markers)
        if not carrier:
            out_link.send(packet, at)

    # -- congestion epoch -------------------------------------------------

    def _epoch(self, machinery: _LinkMachinery) -> None:
        now = self.sim.now
        qavg = machinery.link.queue.take_window_average(now)
        machinery.qavg_last = qavg
        estimator = machinery.estimator
        if qavg <= self.config.qthresh:
            # Uncongested: every detector's ``fn`` contract returns 0 here,
            # and a zero epoch clears the carry — skip the two calls.
            estimator._carry = 0.0
            n_markers = 0
        else:
            n_markers = estimator.markers_for_epoch(qavg)
        machinery.selector.on_epoch(n_markers, now)
        if self._batch_feedback:
            # Ship the feedback coalesced over this epoch before the park
            # decision below: a parked link must have an empty buffer.
            self._flush_feedback(machinery.link.name)
        # An uncongested boundary on an empty link arms ``pw = 0`` and
        # clears both the deficit and the epoch marker count, so every
        # boundary until the queue next holds data is replayable: qavg
        # stays exactly 0.0 (the occupancy integral never accrues), no
        # selection can trigger, and the only evolving selector state is
        # the per-epoch ``wav`` fold — which is recorded and replayed on
        # unpark.  Park the timer until the link reports its next backlog:
        # with N flows, the access links alone are 2N near-permanently
        # poolable timers.  Only a *data* packet that has to wait can make
        # the next window average non-zero — markers have zero size, and a
        # packet that finds the transmitter idle never touches the
        # occupancy integral — which is exactly when ``watch_backlog``
        # calls back.  (Only a departure-time link can promise that — true
        # for every builder-produced core link that is neither a partition
        # cut nor armed for failures; the others keep their timer.)
        if qavg == 0.0 and machinery.link.watch_backlog(machinery.on_backlog):
            self._park(machinery)

    def _park(self, machinery: _LinkMachinery) -> None:
        """Stop an idle link's epoch timer; its next backlog re-arms it."""
        machinery.task.stop()
        now = self.sim.now
        machinery.parked_at = now
        machinery.park_t = now
        machinery.park_next = now + self.config.core_epoch
        machinery.park_pending = 0

    def _note_parked_marker(self, machinery: _LinkMachinery, count: int, now: float) -> None:
        """A marker (or a train carrying ``count`` of them) is traversing a
        parked link at ``now``: bin it into the virtual epoch grid so the
        skipped ``wav`` folds replay exactly on unpark."""
        nxt = machinery.park_next
        if now >= nxt:
            interval = self.config.core_epoch
            counts = machinery.park_counts
            counts.append(machinery.park_pending)
            machinery.park_pending = 0
            t = nxt
            nxt = t + interval
            while now >= nxt:
                counts.append(0)
                t = nxt
                nxt = t + interval
            machinery.park_t = t
            machinery.park_next = nxt
        machinery.park_pending += count

    def _unpark(self, machinery: _LinkMachinery) -> None:
        """First data packet that has to wait after parking (the link
        calls this just before admitting it): re-arm the epoch timer *on
        its original grid*.

        The skipped boundaries are replayed by re-accumulating the fire
        times a never-parked task would have produced (``t += interval``
        from the parked fire time — the float sequence must match
        exactly), folding each elapsed epoch's recorded marker count into
        the selector, and re-opening the queue's averaging window at the
        last skipped boundary — precisely the state the skipped epochs
        would have left behind.
        """
        interval = self.config.core_epoch
        now = self.sim.now
        machinery.parked_at = None
        counts = machinery.park_counts
        t = machinery.park_t
        nxt = machinery.park_next
        if now >= nxt:
            counts.append(machinery.park_pending)
            machinery.park_pending = 0
            t = nxt
            nxt = t + interval
            while now >= nxt:
                counts.append(0)
                t = nxt
                nxt = t + interval
        if counts:
            fold = machinery.selector.fold_epoch
            for count in counts:
                fold(count)
            counts.clear()
        machinery.park_pending = 0
        machinery.link.queue.reset_window(t)
        machinery.task = self.sim.every(
            interval, lambda m=machinery: self._epoch(m), first_at=nxt
        )

    # -- feedback -----------------------------------------------------------

    def _make_emitter(self, link_name: str) -> Callable[[int, str, float], None]:
        if self._batch_feedback:
            buffer = self._fb_buffers.setdefault(link_name, {})

            def emit_batched(flow_id: int, origin_edge: str, label: float) -> None:
                self.feedback_emitted += 1
                entry = buffer.get((flow_id, origin_edge))
                if entry is None:
                    buffer[(flow_id, origin_edge)] = [1, label]
                else:
                    entry[0] += 1
                    entry[1] = label

            return emit_batched

        def emit(flow_id: int, origin_edge: str, label: float) -> None:
            # Positional, as an edge's ``_emit`` builds its data packet; the
            # closure holds no more cells than ``self`` and ``link_name``.
            sim = self.sim
            feedback = Packet(
                _FEEDBACK, flow_id, self.name, origin_edge, 0.0, 0, origin_edge, label, sim.now, sim
            )
            feedback.feedback_from = link_name
            self.feedback_emitted += 1
            self._send_feedback(feedback)

        return emit

    def _flush_feedback(self, link_name: str) -> None:
        """Epoch boundary: ship one counted FEEDBACK packet per pending
        (flow, edge) key of ``link_name``'s batch buffer.  ``seq`` carries
        the logical marker count (per-marker feedback leaves it 0)."""
        buffer = self._fb_buffers.get(link_name)
        if not buffer:
            return
        now = self.sim.now
        for (flow_id, origin_edge), (count, label) in buffer.items():
            feedback = Packet(
                PacketKind.FEEDBACK,
                flow_id,
                src=self.name,
                dst=origin_edge,
                size=0.0,
                seq=count,
                label=label,
                created_at=now,
                sim=self.sim,
            )
            feedback.origin_edge = origin_edge
            feedback.feedback_from = link_name
            self._send_feedback(feedback)
        buffer.clear()
