"""Unidirectional links.

A link models the output port of its upstream node: an output queue, a
transmitter that serializes one packet at a time at ``bandwidth_pps``
packets per second, and a propagation pipe of ``prop_delay`` seconds.
Several packets can be in the propagation pipe simultaneously (the
transmitter frees up as soon as serialization ends).

Markers are piggybacked on the data stream and consume no capacity (paper
§2.2): header fields of a data packet, or packets of size 0.

Hot path
--------
A static drop-tail FIFO link — every link of a cloud without AQM,
partition cuts or scheduled failures — is a *departure-time* FIFO
(``_send_fast``): on a FIFO nothing that arrives later can change when
an admitted packet leaves, so its serialization start
``max(now, _free_at)``, the new ``_free_at = start + size /
bandwidth_pps`` and its delivery at ``_free_at + prop_delay`` are fixed
at arrival and the **one** event of the hop, the delivery, is scheduled
there and then.  There is no transmitter wakeup and no queue of packet
objects, and admission is ``DropTailQueue.admit``'s test written out.
That event is the far end's ``receive(packet, link)`` (``_deliver_cb``),
pushed as :meth:`~repro.sim.engine.Simulator.schedule_at_fast` would (same
past-check and seq bump) without its frame or a trampoline of the link's.

*Ledger.*  What the buffer has to remember is only when each waiting
packet stops occupying it.  A packet that must wait is appended to the
link's ledger as ``(start, size)``; ``_settle(now)`` replays, in start
order, what ``FifoQueue.pop`` would have done to the buffer at each
``start`` — advance the occupancy integral to ``start``, release the
occupancy — so ``qavg`` and drop-tail admission are those of a real
queue.  A link counts only what a result reads: its drops
(``queue.stats.dropped_data``, ``failure_drops``, ``inflight_drops``);
the occupancy integral and every delivery instant are the state above.
Settling is lazy: the next arrival does it, and so does every read
(``Link.settle()`` and the queue's ``occupancy`` / ``time_average`` /
``take_window_average`` / ``reset_window`` / ``len`` through
``FifoQueue._port``).  The ledger is allocated on a link's first
backlog; an access link that never queues carries none.

*Tie rule.*  A read or an arrival at ``now`` first replays the starts
strictly before ``now``: **a packet whose serialization starts exactly
at ``now`` still occupies the buffer for an arrival at ``now``**, which
is admitted or dropped against it.  Once booked, the arrival kicks that
start (as a ``send`` kicks an idle transmitter), so a second arrival at
the same instant finds the slot free; a refused arrival kicks nothing.
This is what a wakeup-driven queue does whenever the arrival's event
precedes the wakeup in ``(time, seq)`` order; the opposite order could
differ only in one drop decision on an exactly full buffer at an exact
float tie.

*Markers aboard.*  A Corelite marker is a field of the data packet it was
emitted with (``origin_edge`` / ``label`` on a DATA packet): on this path
one object, one ``send``, one delivery.  It leaves its carrier
(:meth:`Packet.detach_marker`) exactly where a marker trailing the packet
would have fared differently from it: a scalar carrier the buffer refuses
sends its marker on alone over the same link (``_tail_drop`` — never lost
with its data packet), and the per-packet paths part the two on entry
(``_send_split``, where a train is split).  A parted marker — like any
zero-size packet, a TCP ACK say — is then a packet like any other, with a
delivery of its own.  A failed link loses both, as it lost both packets;
markers aboard a *train* go where the train goes.

*Sinks.*  A packet's last hop needs no event when the node it is addressed
to only records it.  A node says so with ``quiet_sink`` (a Corelite edge;
a CSFQ edge, which sends LOSS_NOTIFY at a gap, also has ``quiet_for``: asked
per packet handed over, it keeps each delivery it does not vouch for an
event).  The link the plan names (:mod:`repro.experiments.fastpaths`: a
flow's own egress link, its node's one feeder) *books* ``(due, seq,
packet)`` in a :class:`~repro.sim.engine.Ledger` — scalar packets, parted
markers and trains alike — where it would have scheduled the delivery, in
``(due, seq)`` order by construction; the first booking opens it, on the
node's ``receive`` with the link as its source, as the node's ``inbox``.
Deliveries are settled — the engine calls ``receive(packet, link, due)`` —
by the node before it reads the state they write or an event hands it a
packet, by :meth:`Link.settle`, and by the push past the ledger's cap;
which precede a reader is the engine's rule (:mod:`repro.sim.engine`).

*Pass-through.*  A packet's last core hop needs no event either when its
outcome is fixed at its in-link's send.  The core link the plan names as
an egress link's feeder (``_through``) calls the core's ``receive(packet,
link, due)`` at the send, in place of the event, while no core reads the
egress before ``due`` (its Corelite epoch parked, ``_on_backlog``, or
``epochless``: CSFQ's state is read by arrivals only), its transmitter is
idle at ``due``, ``due`` is before the run's bound, and no earlier hop to it
waits as an event (``now > _hold``, which a fallback raises).  The core
admits at ``due`` and sends on with ``send(packet, at)``.  Until ``due``
nothing else touches the egress (one feeder, no reader, an idle
transmitter, no change to either link: taps, drop listeners and arming are
wired before traffic flows, and void the plan's entries for good) and its
sink's booking settles by the real clock: exact, but for the seq of the
booking (or of the event, at a CSFQ edge that reports a loss), taken early
— a reader at the egress edge scheduled in between, at exactly the
delivery's float instant, would see it (the differential property has
found none).

Links that need a real queue keep it (``_send_queued`` →
``FifoQueue.push`` / ``pop``, ``_transmit_from``, one ``_wake`` per
serialization gap): disciplines with their own push, pop or admit (WFQ, RED,
FRED, DECbit), :class:`BoundaryLink`, and links armed by
:meth:`Link.enable_dynamics`, whose failures flush packet objects.  The
choice is made from what the link observes (``_plain_fifo``,
``_dynamic``); the queued path is also the oracle the departure-time
path is tested against.

``send`` and the delivery callback are *rebindable*: with no taps
installed — the common case in large sweeps — the per-packet path never
iterates an empty listener list.  Installing a tap rebinds the instance
attribute to the tapped variant.

Trains
------
A :class:`~repro.sim.packet.PacketTrain` (Corelite's opt-in ``train_batch``
datapath) traverses a plain-FIFO link as **one** packet whose size is the
member count: occupancy, admission and serialization charge the whole train
in a single arithmetic step, and one delivery event carries all members.  A
drop charges ``packet.count``; nothing is written per member (the egress
edge spaces member delays by ``1 / bandwidth_pps`` of the link that hands
it the train).  Any path that needs per-packet decisions splits the train
into its scalar members first: bypass-free queues (WFQ/RED/FRED/DECbit),
arrival taps, dynamics-enabled links (failure drop taxonomy + reroutes),
boundary links (partition cuts serialize scalars).  CSFQ and FIFO edges
emit no trains: a CSFQ core decides per packet, so a train would split at
the first one.

Dynamics
--------
A link that appears in a :class:`~repro.sim.dynamics.NetworkEvent`
schedule is armed with :meth:`Link.enable_dynamics` at build time, which
wraps the delivery callback in a *generation check*: every scheduled
delivery captures the generation current at send time, and
:meth:`Link.fail` bumps the generation, so packets in flight when the
link fails are dropped deterministically when their delivery event fires
— even if the link has already recovered by then.  Static links never
pay for this: their delivery callback stays the far end's ``receive``.
Arming is wired before traffic flows (``fail()`` arms a link never armed,
so on one it is refused once traffic has flowed); an armed link fails and
recovers mid-run.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf, nextafter
from typing import Callable, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Ledger, Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, FifoQueue

__all__ = ["Link", "BoundaryLink"]

DropListener = Callable[[Packet, float], None]


class Link:
    """A one-way link ``src -> dst`` with an output queue at ``src``."""

    __slots__ = (
        "sim",
        "name",
        "src_name",
        "dst",
        "bandwidth_pps",
        "prop_delay",
        "queue",
        "send",
        "_send_base",
        "_plain_fifo",
        "_deliver_cb",
        "_free_at",
        "_ledger",
        "_sink",
        "_quiet_for",
        "_booked",
        "_through",
        "_hold",
        "_carried",
        "_on_backlog",
        "epochless",
        "_wake_pending",
        "_drop_listeners",
        "_arrival_taps",
        "_delivery_taps",
        "up",
        "failure_drops",
        "inflight_drops",
        "_dynamic",
        "_gen",
        "_down_saved_send",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src_name: str,
        dst: "Node",
        bandwidth_pps: float,
        prop_delay: float,
        queue: FifoQueue,
    ) -> None:
        if not bandwidth_pps > 0:
            raise ConfigurationError(f"link bandwidth must be positive, got {bandwidth_pps}")
        if not prop_delay >= 0:
            raise ConfigurationError(f"propagation delay must be >= 0, got {prop_delay}")
        self.sim = sim
        self.name = name
        self.src_name = src_name
        self.dst = dst
        self.bandwidth_pps = bandwidth_pps
        self.prop_delay = prop_delay
        self.queue = queue
        #: Absolute time the transmitter has served everything admitted so
        #: far (departure-time path) / finishes its current serialization
        #: (queued path).
        self._free_at = 0.0
        #: Departure-time path: ``(start, size)`` of admitted packets whose
        #: serialization start has not been replayed yet; allocated on the
        #: first backlog.
        self._ledger: Optional[deque] = None
        #: "Sinks": the far end's name where the plan books for it, its
        #: ``quiet_for``, and the deliveries booked for it (opened by the first).
        self._sink: Optional[str] = None
        self._quiet_for: Optional[Callable[[Packet], bool]] = None
        self._booked: Optional[Ledger] = None
        #: "Pass-through": egress links by destination, where the plan hands over.
        self._through: Optional[dict] = None
        #: No fast path touches the link at or before ``_hold`` (``inf``: not
        #: planned, or wired since); an egress's last hop left as an event then.
        self._hold = inf
        #: Whether the link was offered a packet (``_wire``: traffic has flowed).
        self._carried = False
        self._on_backlog: Optional[Callable[[], None]] = None
        #: Whether only arrivals read what its core keeps for it (CSFQ's
        #: admission state): no epoch reads it on a clock ("Pass-through").
        self.epochless = False
        self._wake_pending = False
        self._drop_listeners: list = []
        self._arrival_taps: list = []
        self._delivery_taps: list = []
        #: Whether the link is currently operational (dynamics).
        self.up = True
        #: Data packets refused by ``send`` while the link was down.
        self.failure_drops = 0
        #: Data packets stranded in the propagation pipe by a failure.
        self.inflight_drops = 0
        self._dynamic = False
        self._gen = 0
        self._down_saved_send: Optional[Callable[[Packet], bool]] = None
        # ``_send_fast`` replays FifoQueue's push/pop and DropTailQueue's admit
        # without calling them: sound only for a plain drop-tail FIFO.  Queues
        # with their own scheduling, admission or accounting (WFQ, RED, FRED,
        # DECbit, a subclass's ``admit``) must see every packet through push/pop.
        kind = type(queue)
        self._plain_fifo = (
            kind.push is FifoQueue.push and kind.pop is FifoQueue.pop
            and kind.admit is DropTailQueue.admit
        )
        # Rebindable entry points: start on the tap-free fast paths.
        if self._plain_fifo:
            self._send_base = self._send_fast
            queue._port = self
        else:
            self._send_base = self._send_queued
        self.send = self._send_base
        self._deliver_cb = dst.receive

    # -- observation hooks ------------------------------------------------

    def add_drop_listener(self, listener: DropListener) -> None:
        """Call ``listener(packet, now)`` at each drop.  Build-time: raises
        ``SimulationError`` once traffic has flowed (``_wire``)."""
        self._wire("a drop listener")
        self._drop_listeners.append(listener)

    def add_arrival_tap(self, tap: Callable[[Packet, float], Optional[bool]]) -> None:
        """Install an ingress tap, called before a packet is enqueued.

        A tap may *consume* the packet by returning ``True`` (only tests
        install one, to lose chosen packets; CSFQ's drop is in its router).
        Returning ``None``/``False`` lets the packet continue to the queue.
        Build-time: raises ``SimulationError`` once traffic has flowed.
        """
        self._wire("an arrival tap")
        self._arrival_taps.append(tap)
        self.send = self._send_tapped

    def add_delivery_tap(self, tap: Callable[[Packet, float], None]) -> None:
        """Call ``tap(packet, now)`` when a packet reaches the far end (only tests
        install one).  Build-time: raises ``SimulationError`` once traffic has flowed."""
        self._wire("a delivery tap")
        self._delivery_taps.append(tap)
        self._rebind_deliver()

    def watch_backlog(self, callback: Callable[[], None]) -> bool:
        """Arm ``callback`` to run once, just before the next data packet
        that has to wait for the transmitter is admitted.

        Until it runs the buffer provably stays empty, which is what lets
        an idle Corelite link park its epoch timer.  Only a link the plan
        gives fast paths, with nothing waiting, can promise that; any other
        returns ``False`` and arms nothing.
        """
        if self._hold == inf or self.backlog():
            return False
        self._on_backlog = callback
        return True

    # -- dynamics (failure / recovery) ------------------------------------

    def enable_dynamics(self) -> None:
        """Arm the link for scheduled failure/recovery (a no-op once armed).

        Build-time, as the dynamics layer calls it (and :meth:`fail` on a link
        never armed): it raises ``SimulationError`` once traffic has flowed.
        """
        if self._dynamic:
            return
        self._wire("arming")
        self._dynamic = True
        # Failures flush packet objects and split trains (the drop
        # taxonomy — queue flush / in-flight stranding / send-while-down —
        # and reroute decisions are per-packet semantics): a plain FIFO
        # moves to the real queue.
        if self._plain_fifo:
            rebind_send = self.send is self._send_base
            self._send_base = self._send_queued
            if rebind_send:
                self.send = self._send_base
            self.queue._port = None
        self._rebind_deliver()

    def _rebind_deliver(self) -> None:
        """Recompute ``_deliver_cb`` from taps + dynamics state.

        With dynamics enabled the callback is a closure over the current
        generation: :meth:`fail` bumps ``_gen``, so every delivery
        scheduled before the failure sees a stale generation and drops.
        :meth:`recover` rebinds a fresh closure for post-recovery sends.
        """
        base = self._deliver_tapped if self._delivery_taps else self.dst.receive
        if not self._dynamic:
            self._deliver_cb = base
            return
        gen = self._gen

        def deliver_checked(packet: Packet, link: "Link") -> None:
            if self._gen != gen:
                if packet.size > 0.0:
                    self.inflight_drops += packet.count
                return
            base(packet, link)

        self._deliver_cb = deliver_checked

    def fail(self) -> int:
        """Take the link down; returns the number of data packets lost.

        Deterministic loss semantics: the output queue is flushed (each
        data packet booked as a queue drop, so it shows up in
        ``stats.dropped_data`` and the drop listeners fire), everything
        already in the propagation pipe is stranded by the generation
        bump (counted in :attr:`inflight_drops` when its delivery event
        fires), and subsequent ``send`` calls are refused (counted in
        :attr:`failure_drops`).  Markers vanish silently — they carry no
        payload.  Idempotent while already down.  Returns the number of
        queued data packets flushed.

        A link never armed is armed first (:meth:`enable_dynamics`), which is
        build-time: once traffic has flowed it raises ``SimulationError`` and
        changes nothing.
        """
        if not self.up:
            return 0
        self.enable_dynamics()
        now = self.sim.now
        self.up = False
        self._gen += 1
        queue = self.queue
        stats = queue.stats
        flushed = 0
        while True:
            packet = queue.pop(now)
            if packet is None:
                break
            if packet.size > 0.0:
                stats.dropped_data += packet.count
                flushed += packet.count
                for listener in self._drop_listeners:
                    listener(packet, now)
        # The interrupted serialization (if any) belongs to a stranded
        # packet; a recovered link starts with a free transmitter.
        if self._free_at > now:
            self._free_at = now
        self._down_saved_send = self.send
        self.send = self._send_down
        return flushed

    def recover(self) -> None:
        """Bring the link back up; a no-op if it is not down."""
        if self.up:
            return
        self.up = True
        self.send = self._down_saved_send
        self._down_saved_send = None
        # Fresh generation closure: post-recovery sends deliver normally
        # while pre-failure stragglers keep their stale generation.
        self._rebind_deliver()

    def _send_down(self, packet: Packet, at: Optional[float] = None) -> bool:
        """``send`` while failed: refuse everything deterministically."""
        if packet.size > 0.0:
            self.failure_drops += packet.count
            now = self.sim.now
            for listener in self._drop_listeners:
                listener(packet, now)
        return False

    # -- data path: departure-time FIFO -------------------------------------

    def _send_fast(self, packet: Packet, at: Optional[float] = None) -> bool:
        """Offer ``packet`` to the link; returns False if it was dropped.

        The departure-time FIFO (module docstring, "Hot path"): bound as
        ``self.send`` while no arrival taps are installed, the queue is a
        plain FIFO and the link is not armed for failures.  Trains pass
        whole — size, occupancy and serialization are plain arithmetic.
        ``at``: its arrival instant, if not ``sim.now`` ("Pass-through").
        """
        sim = self.sim
        now = sim.now if at is None else at
        self._carried = True
        free_at = self._free_at
        size = packet.size
        if size <= 0.0:
            due = (free_at if free_at > now else now) + self.prop_delay
            ledger = self._ledger
            if ledger and ledger[0][0] <= now:
                self._settle(nextafter(now, inf))  # tie rule: an arrival kicks
        else:
            if self._ledger:
                self._settle(now)
            queue = self.queue
            if now >= free_at:
                # Idle transmitter, hence an empty buffer: the packet would be
                # pushed and popped again at once.  ``DropTailQueue.admit``, inline.
                if not queue._occupancy + size <= queue.capacity:
                    return self._tail_drop(packet, now, at)
                if now > queue._last_time:  # zero-width occupancy spike: the
                    queue._last_time = now  # integral only advances its clock
                free_at = now + size / self.bandwidth_pps
            else:
                # The packet waits until ``free_at``: book the push now, leave
                # the pop to ``_settle``.
                callback = self._on_backlog
                if callback is not None:
                    self._on_backlog = None
                    callback()
                if not queue._occupancy + size <= queue.capacity:
                    return self._tail_drop(packet, now, at)
                last = queue._last_time
                if now > last:
                    queue._integral += queue._occupancy * (now - last)
                    queue._last_time = now
                queue._occupancy += size
                ledger = self._ledger
                if ledger is None:
                    ledger = self._ledger = deque()
                ledger.append((free_at, size))
                if ledger[0][0] <= now:
                    self._settle(nextafter(now, inf))  # tie rule: an arrival kicks
                free_at = free_at + size / self.bandwidth_pps
            self._free_at = free_at
            due = free_at + self.prop_delay
        sink = self._sink
        if sink is None or packet.dst != sink or not self._book(due, packet):
            through = self._through
            egress = through and through.get(packet.dst)
            if egress is not None:
                if (
                    # No core reads the egress before ``due``.
                    (egress._on_backlog is not None or egress.epochless)
                    and due >= egress._free_at
                    and now > egress._hold
                    and due < sim._until
                ):
                    self._deliver_cb(packet, self, due)
                    return True
                if egress._hold < due:
                    egress._hold = due
            # ``Simulator.schedule_at_fast``, inline ("Hot path").
            if not due >= now:
                raise SimulationError(f"cannot schedule into the past (t={due} < now={now})")
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (due, seq, None, self._deliver_cb, (packet, self)))
        return True

    # -- sinks: deliveries booked, not scheduled -------------------------------

    def _book(self, due: float, packet: Packet) -> bool:
        """Book the delivery (False: schedule it).  The first booking opens
        the ledger; it books what ``quiet_for`` (if any) vouches."""
        booked = self._booked
        if booked is None:
            dst = self.dst
            booked = self._booked = dst.inbox = self.sim.open_ledger(dst.receive, self)
        quiet_for = self._quiet_for
        if quiet_for is not None and not quiet_for(packet):
            return False
        self.sim.book(booked, due, packet)
        return True

    def _wire(self, change: str) -> None:
        """A build-time change: refused once traffic has flowed — an event has
        run, or this link has carried a packet — else it voids the link's
        entries in the fast-path plan for good."""
        sim = self.sim
        if sim._running or sim.events_executed or self._carried:
            raise SimulationError(
                f"link {self.name}: {change} is wired before traffic flows, "
                "and traffic has flowed"
            )
        self._sink = None
        self._through = None
        self._hold = inf

    def _tail_drop(self, packet: Packet, now: float, at: Optional[float] = None) -> bool:
        self.queue.stats.dropped_data += packet.count
        for listener in self._drop_listeners:
            listener(packet, now)
        if packet.origin_edge is not None and type(packet) is Packet:
            # Never lost with its data packet: the marker aboard travels on
            # alone (zero size is always admitted), at the carrier's instant.
            self.send(packet.detach_marker(self.sim), at)
        return False

    def _settle(self, before: float) -> None:
        """Replay every serialization start strictly before ``before``, in
        start order: ``FifoQueue.pop``'s release of the buffer at ``start``."""
        ledger = self._ledger
        queue = self.queue
        while ledger and ledger[0][0] < before:
            start, size = ledger.popleft()
            last = queue._last_time
            if start > last:
                queue._integral += queue._occupancy * (start - last)
                queue._last_time = start
            queue._occupancy -= size

    def settle(self, now: Optional[float] = None) -> None:
        """Bring the lazily booked state — queue occupancy and its
        integral — up to ``now`` (default: the current instant), and settle
        the sink's booked deliveries.  A no-op on the queued path."""
        if self._ledger:
            self._settle(self.sim.now if now is None else now)
        if self._booked:
            self.sim.settle(self._booked)

    def backlog(self) -> int:
        """Data packets (trains count once) admitted by the departure-time
        path that have not started serializing."""
        self.settle()
        return len(self._ledger) if self._ledger else 0

    # -- data path: real queue ----------------------------------------------

    def _send_queued(self, packet: Packet, at: Optional[float] = None) -> bool:
        """``send`` through the discipline's own enqueue/dequeue, for
        queues with custom push/pop semantics and for armed links.  Both
        make per-packet decisions, so trains split into scalar members
        here."""
        if packet.count != 1:
            return self._send_split(packet, self._send_queued)
        return self._send_via_queue(packet)

    def _send_via_queue(self, packet: Packet) -> bool:
        """Push through the discipline and kick the transmitter.  The
        discipline decides per packet, so a scalar packet parts from the
        marker aboard it first, as a train splits."""
        if packet.origin_edge is not None and packet.size > 0.0 and type(packet) is Packet:
            return self._send_split(packet, self._send_via_queue)
        now = self.sim.now
        self._carried = True
        if not self.queue.push(packet, now):
            for listener in self._drop_listeners:
                listener(packet, now)
            return False
        if now >= self._free_at:
            self._transmit_from(now)
        elif not self._wake_pending:
            self._wake_pending = True
            self.sim.schedule_at_fast(self._free_at, self._wake)
        return True

    def _send_tapped(self, packet: Packet, at: Optional[float] = None) -> bool:
        """Tap-aware ``send`` variant (bound once an arrival tap exists).
        Arrival taps decide per packet, so trains split before the taps
        run."""
        if packet.count != 1 or (packet.origin_edge is not None and packet.size > 0.0):
            return self._send_split(packet, self._send_tapped)
        now = self.sim.now
        for tap in self._arrival_taps:
            if tap(packet, now):
                return False
        return self._send_base(packet)

    def _send_split(self, packet: Packet, send: Callable[[Packet], bool]) -> bool:
        """Offer ``packet`` through ``send`` piece by piece: a train's
        members, or a scalar packet and then the marker that was aboard it.

        Returns True iff every piece was accepted (matching the
        all-or-nothing contract loosely: callers only use the boolean for
        logging; drops are fully accounted by the per-member path).
        """
        if type(packet) is Packet:
            pieces = [packet, packet.detach_marker(self.sim)]
        else:
            pieces = packet.split(self.sim)
        accepted = True
        for member in pieces:
            if not send(member):
                accepted = False
        return accepted

    def _transmit_from(self, start: float) -> None:
        """Pop and serialize starting at ``start`` (transmitter is free)."""
        queue = self.queue
        schedule_at = self.sim.schedule_at_fast
        prop = self.prop_delay
        while True:
            packet = queue.pop(start)
            if packet is None:
                return
            tx = packet.size / self.bandwidth_pps
            if tx == 0.0:
                # Markers serialize instantaneously: deliver straight away
                # and keep popping — they never hold the transmitter.
                schedule_at(start + prop, self._deliver_cb, packet, self)
                continue
            free_at = start + tx
            self._free_at = free_at
            if len(queue) and not self._wake_pending:
                self._wake_pending = True
                schedule_at(free_at, self._wake)
            schedule_at(free_at + prop, self._deliver_cb, packet, self)
            return

    def _wake(self) -> None:
        now = self.sim.now
        self._wake_pending = False
        if now >= self._free_at:
            self._transmit_from(now)
        elif len(self.queue):
            # A same-instant send() won the transmitter before this wakeup
            # fired; re-arm for the new serialization end.
            self._wake_pending = True
            self.sim.schedule_at_fast(self._free_at, self._wake)

    # -- delivery -----------------------------------------------------------

    def _deliver_tapped(self, packet: Packet, link: "Link") -> None:
        """``dst.receive`` with the delivery taps in front."""
        now = self.sim.now
        for tap in self._delivery_taps:
            tap(packet, now)
        self.dst.receive(packet, link)

    # -- metrics --------------------------------------------------------

    @property
    def busy(self) -> bool:
        """Whether the transmitter is serializing a packet right now."""
        return self.sim.now < self._free_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, {self.bandwidth_pps:.0f} pps, {self.prop_delay * 1e3:.0f} ms)"


class _RemotePort:
    """Stand-in destination for a link whose far end lives in another
    partition.  Only the name is real; a local ``receive`` is a bug —
    boundary deliveries travel as cross-partition messages instead."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, packet: Packet, link) -> None:
        raise SimulationError(
            f"boundary destination {self.name!r} cannot receive locally; "
            "the packet should have been emitted as a cross-partition message"
        )


class BoundaryLink(Link):
    """The cut-crossing flavor of :class:`Link` for partitioned clouds.

    Queueing, serialization and drops are the plain link's; the far end
    is remote, so instead of scheduling a local delivery event the link
    *emits* ``(deliver_time, packet)`` into the partition's outbox at
    transmit start.  That timing is the whole trick: the emission happens
    while the packet's send still lies inside the current window, and its
    delivery time — ``free_at + prop`` for data, ``start + prop`` for
    markers — is at least one window (the minimum cut propagation delay)
    in the future, so the receiving partition can ingest it at the next
    barrier without ever seeing an event in its past.

    The departure-time path stays off (``send`` is the queued path): it
    schedules a local delivery event, which a cut does not have — the
    capture point is the pop loop at transmit start.  The queued path
    produces identical timestamps and drops — only the local event count
    differs.

    :class:`~repro.sim.packet.PacketTrain` carriers cross the cut whole
    when the underlying queue is a plain FIFO (``_train_whole``, captured
    before the bypass flag is cleared) — exactly the cases where the
    serial link would have kept them whole — and split to scalar members
    otherwise, matching the serial per-packet disciplines.  The wire
    format serializes the train fields, so the far side reconstructs the
    identical carrier.
    """

    __slots__ = ("_emit", "_train_whole")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src_name: str,
        dst_name: str,
        bandwidth_pps: float,
        prop_delay: float,
        queue: FifoQueue,
        emit: Callable[[float, Packet], None],
    ) -> None:
        super().__init__(
            sim, name, src_name, _RemotePort(dst_name),
            bandwidth_pps, prop_delay, queue,
        )
        if prop_delay <= 0.0:
            raise ConfigurationError(
                f"boundary link {name!r} needs a positive propagation delay "
                "(the conservative window has no lookahead without one)"
            )
        self._emit = emit
        # Trains may stay whole only where the serial link would keep
        # them whole: remember the plain-FIFO verdict before clearing it.
        self._train_whole = self._plain_fifo
        # Force the queued path: messages are captured in the pop loop,
        # which the departure-time path does not have.  This also keeps
        # every fast path off this link (the plan reads ``_plain_fifo``),
        # which is results-invariant by design.
        self._plain_fifo = False
        queue._port = None
        self._send_base = self._send_queued
        self.send = self._send_base

    def add_delivery_tap(self, tap) -> None:
        raise ConfigurationError(
            f"boundary link {self.name!r} delivers in another partition; "
            "delivery taps cannot observe it"
        )

    def _send_queued(self, packet: Packet, at: Optional[float] = None) -> bool:
        """Queued send that keeps trains whole over a plain FIFO — the
        serial fast path would not have split them either.  Arrival taps
        (``_send_tapped``) still split in front, matching serial links."""
        if packet.count != 1 and not self._train_whole:
            return self._send_split(packet, self._send_queued)
        return self._send_via_queue(packet)

    def _transmit_from(self, start: float) -> None:
        """Pop and serialize as the base link does, emitting instead of
        scheduling delivery (timestamps match the serial link exactly)."""
        queue = self.queue
        emit = self._emit
        prop = self.prop_delay
        while True:
            packet = queue.pop(start)
            if packet is None:
                return
            tx = packet.size / self.bandwidth_pps
            if tx == 0.0:
                emit(start + prop, packet)
                continue
            free_at = start + tx
            self._free_at = free_at
            if len(queue) and not self._wake_pending:
                self._wake_pending = True
                self.sim.schedule_at_fast(free_at, self._wake)
            emit(free_at + prop, packet)
            return
