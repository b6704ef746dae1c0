"""The discrete-event engine.

A :class:`Simulator` owns virtual time and a binary heap of pending events.
Events are plain callbacks: components schedule ``fn(*args)`` to run at an
absolute or relative virtual time.  Ties are broken by insertion order, so
the execution order of same-time events is deterministic.

The engine is callback-based rather than coroutine-based: the hot path of a
packet simulation executes millions of events, and a heap of tuples with
direct callbacks is several times faster than generator-based processes
while remaining easy to reason about.

Two scheduling tiers exist:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` so the caller can cancel the event later.  Use these
  only when cancellation is actually possible (timers, pacers).
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_at_fast` skip
  the handle allocation entirely and return nothing.  The vast majority of
  events in a packet simulation — deliveries, source arrivals, feedback —
  are fire-and-forget, and on the hot path the handle allocation is pure
  overhead.  Both tiers share one sequence counter, so mixing them keeps
  same-time ordering deterministic.

Underneath both tiers the event store itself is two-level.  Near-future
events — pacer fires, epoch ticks, link deliveries, anything within
:data:`_CAL_HORIZON` of the clock — land in a calendar queue: a ring of
:data:`_CAL_BUCKETS` buckets of :data:`_CAL_WIDTH` seconds each, appended
O(1) and lazily sorted per bucket when the clock reaches it.  With N
flows the timer population scales with N, so the binary heap's O(log N)
per insert/pop becomes the dominant per-packet cost; the calendar makes
the dense near-future churn O(1) amortized.  Far-horizon or post-``inf``
events fall back to the binary heap.  The dispatch loop always executes
the global ``(time, seq)`` minimum of the two structures, so event order
— and therefore every replay — is byte-identical to a single heap
(pinned by the calendar on/off replay tests); ``Simulator(calendar=False)``
forces the pure-heap path.

Ledgers
-------
A delivery that sends and schedules nothing (a packet's last hop, into an
egress that only records it) needs no event: it is *booked* in a
:class:`Ledger` under the seq an event would have taken and handed over
before anything reads the state it changes.  The ordering rule lives here:
the run loop publishes the running event's seq (``_cur_seq``), a reader
running as event ``(T, r)`` sees exactly the booked deliveries with ``(due,
s) < (T, r)``, and one outside ``run()`` (``_cur_seq`` is ``inf``) those due
by ``now``.  Booked deliveries count in :meth:`pending` / :meth:`peek_time`,
:meth:`step` steps onto them, a draining ``run()`` ends with the clock on
the last; ``events_executed`` does not count them.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Simulator", "EventHandle", "PeriodicTask", "Ledger"]

#: Calendar bucket width in seconds.  2 ms keeps per-bucket populations
#: dense enough to amortize the bucket-switch bookkeeping (tens of
#: entries at thousands of events per simulated second) while spanning
#: every recurring interval in the system — pacer gaps, link service
#: times, 40 ms propagation delays, 0.1/0.3 s epochs, 1 s samplers.
_CAL_WIDTH = 0.002
_CAL_INV = 500.0  # 1 / _CAL_WIDTH, multiplied on the schedule path
#: Ring size (power of two so the slot is a mask, not a modulo).
_CAL_BUCKETS = 1024
_CAL_MASK = _CAL_BUCKETS - 1
#: Anything scheduled at least this far ahead goes to the heap instead.
_CAL_HORIZON = _CAL_BUCKETS * _CAL_WIDTH
#: Below this many pending events the C-implemented binary heap wins on
#: constant factor; the calendar only takes events while the pending
#: population is at least this large.  The policy is pure placement —
#: dispatch always runs the global (time, seq) minimum — so it cannot
#: change event order, only costs.
_CAL_MIN_EVENTS = 256
#: The push that takes a ledger past this length settles it: delivered
#: packets are not held until the next read (``dense_vec`` peak RSS +24 % at
#: 1,024, +2 % at 32), and a settle per ~32 pushes costs nothing measurable.
_LEDGER_CAP = 32


class Ledger(deque):
    """Booked deliveries ``(due, seq, packet)``, in that order, and the
    ``deliver(packet, due)`` that hands one over (module docstring)."""

    __slots__ = ("deliver",)


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in place and is skipped when
    it reaches the head of the heap.  This keeps cancellation O(1).
    """

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, {state})"


class PeriodicTask:
    """A self-rescheduling task firing every ``interval`` seconds.

    Created via :meth:`Simulator.every`.  The callback runs first at
    ``start + interval`` (not at ``start``) which matches how epoch-based
    components behave: they act on what they observed *during* the epoch.

    The task owns a single :class:`EventHandle` for its whole lifetime:
    each firing re-arms the same handle via :meth:`Simulator.reschedule`
    instead of allocating a fresh one per occurrence.

    ``first_at`` pins the first firing to an exact absolute time.  It
    exists for components that park their periodic work while idle and
    later resume *on the original grid*: ``schedule_at(first_at)`` hits
    the precise float a never-parked task would have fired at, which
    ``schedule(first_at - now)`` cannot guarantee (the round trip through
    a delay re-rounds).
    """

    __slots__ = ("_sim", "interval", "_fn", "_handle", "_stopped")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        fn: Callable[[], None],
        first_delay: Optional[float] = None,
        first_at: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        if first_delay is not None and first_delay < 0:
            raise SimulationError(f"first_delay must be >= 0, got {first_delay}")
        if first_at is not None and first_delay is not None:
            raise SimulationError("pass first_delay or first_at, not both")
        self._sim = sim
        self.interval = interval
        self._fn = fn
        self._stopped = False
        if first_at is not None:
            self._handle = sim.schedule_at(first_at, self._fire)
        else:
            delay = interval if first_delay is None else first_delay
            self._handle = sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            # The handle's heap entry was just consumed by this firing, so
            # it is free to re-arm in place — no new allocation or handle.
            self._sim.reschedule(self.interval, self._fire, self._handle)

    def stop(self) -> None:
        """Stop the task; the pending occurrence is cancelled.

        Safe to call from within the task's own callback: ``_fire`` checks
        ``_stopped`` again after the callback before re-arming.
        """
        self._stopped = True
        self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped


class Simulator:
    """Virtual clock plus event heap.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=10.0)
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_running",
        "_next_pid",
        "events_executed",
        "_cur_seq",
        "_ledgers",
        "_cal_on",
        "_cal_buckets",
        "_cal_pos",
        "_cal_sorted",
        "_cal_slot_abs",
        "_cal_count",
        "_cal_next_abs",
    )

    def __init__(self, calendar: bool = True) -> None:
        #: Current virtual time in seconds.  Read-mostly; components must
        #: never assign it — only the run loop advances the clock.
        self.now = 0.0
        self._heap: List[Any] = []
        self._seq = 0
        self._running = False
        self._next_pid = 0
        #: Total number of events executed so far (for micro-benchmarks).
        self.events_executed = 0
        self._cur_seq: float = inf  # seq of the running event ("Ledgers")
        self._ledgers: List[Ledger] = []
        #: ``calendar=False`` forces every event onto the binary heap —
        #: same event order (the replay tests pin this), no O(1) tier.
        self._cal_on = calendar
        self._cal_buckets: List[List[Any]] = [[] for _ in range(_CAL_BUCKETS)]
        self._cal_pos = [0] * _CAL_BUCKETS  # consumed prefix per bucket
        self._cal_sorted = bytearray(_CAL_BUCKETS)
        self._cal_slot_abs = [-1] * _CAL_BUCKETS  # absolute bucket id per slot
        self._cal_count = 0  # live + lazily-cancelled calendar entries
        self._cal_next_abs = 0  # scan frontier: lower bound on earliest bucket

    def next_packet_id(self) -> int:
        """Allocate the next packet id (1, 2, ...) for this simulation.

        Owning the counter per simulator — rather than per process — makes
        packet ids a pure function of the simulation itself: a cloud built
        and run twice in one process, or in parallel workers, sees the
        same ids both times.
        """
        self._next_pid += 1
        return self._next_pid

    def _push(self, time: float, handle: Optional[EventHandle], fn, args) -> None:
        """Store one event: calendar bucket if near-future and the pending
        population is dense enough to pay for bucket upkeep, else heap."""
        self._seq += 1
        entry = (time, self._seq, handle, fn, args)
        if (
            self._cal_on
            and time - self.now < _CAL_HORIZON
            and (self._cal_count or len(self._heap) >= _CAL_MIN_EVENTS)
        ):
            b = int(time * _CAL_INV)
            # ``_cal_next_abs`` never trails the clock's bucket while the
            # calendar is non-empty (and an empty calendar has no slot to
            # collide with), so comparing against it is an exact stand-in
            # for re-bucketing ``now`` — one float multiply cheaper.
            if b - self._cal_next_abs < _CAL_BUCKETS:
                slot = b & _CAL_MASK
                bucket = self._cal_buckets[slot]
                if bucket:
                    # Within the horizon two live absolute buckets cannot
                    # share a slot, so this bucket is already bucket ``b``.
                    if self._cal_sorted[slot]:
                        insort(bucket, entry, self._cal_pos[slot])
                    else:
                        bucket.append(entry)
                else:
                    self._cal_slot_abs[slot] = b
                    bucket.append(entry)
                count = self._cal_count
                self._cal_count = count + 1
                if count == 0 or b < self._cal_next_abs:
                    self._cal_next_abs = b
                return
        heapq.heappush(self._heap, entry)

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        handle = EventHandle(time)
        self._push(time, handle, fn, args)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        handle = EventHandle(time)
        self._push(time, handle, fn, args)
        return handle

    def schedule_fast(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a non-cancellable ``fn(*args)`` ``delay`` seconds from now.

        The hot-path variant of :meth:`schedule`: no :class:`EventHandle`
        is allocated and nothing is returned.  Use for fire-and-forget
        events (packet deliveries, source arrivals); anything that might
        need cancelling must go through :meth:`schedule`.

        The placement logic of :meth:`_push` is inlined here (and in the
        other two hot schedulers) — one Python frame per event is real
        money at millions of events per run.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self._seq += 1
        entry = (time, self._seq, None, fn, args)
        if (
            self._cal_on
            and delay < _CAL_HORIZON
            and (self._cal_count or len(self._heap) >= _CAL_MIN_EVENTS)
        ):
            b = int(time * _CAL_INV)
            if b - self._cal_next_abs < _CAL_BUCKETS:  # see _push
                slot = b & _CAL_MASK
                bucket = self._cal_buckets[slot]
                if bucket:
                    if self._cal_sorted[slot]:
                        insort(bucket, entry, self._cal_pos[slot])
                    else:
                        bucket.append(entry)
                else:
                    self._cal_slot_abs[slot] = b
                    bucket.append(entry)
                count = self._cal_count
                self._cal_count = count + 1
                if count == 0 or b < self._cal_next_abs:
                    self._cal_next_abs = b
                return
        heapq.heappush(self._heap, entry)

    def schedule_at_fast(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Non-cancellable variant of :meth:`schedule_at` (see :meth:`schedule_fast`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        self._seq += 1
        entry = (time, self._seq, None, fn, args)
        if (
            self._cal_on
            and time - self.now < _CAL_HORIZON
            and (self._cal_count or len(self._heap) >= _CAL_MIN_EVENTS)
        ):
            b = int(time * _CAL_INV)
            if b - self._cal_next_abs < _CAL_BUCKETS:  # see _push
                slot = b & _CAL_MASK
                bucket = self._cal_buckets[slot]
                if bucket:
                    if self._cal_sorted[slot]:
                        insort(bucket, entry, self._cal_pos[slot])
                    else:
                        bucket.append(entry)
                else:
                    self._cal_slot_abs[slot] = b
                    bucket.append(entry)
                count = self._cal_count
                self._cal_count = count + 1
                if count == 0 or b < self._cal_next_abs:
                    self._cal_next_abs = b
                return
        heapq.heappush(self._heap, entry)

    def reschedule(
        self, delay: float, fn: Callable[..., None], handle: EventHandle, *args: Any
    ) -> EventHandle:
        """Re-arm an already-fired ``handle`` ``delay`` seconds from now.

        The caller must guarantee the handle's previous heap entry has been
        consumed (it just fired): cancellation is lazy, so re-arming a
        handle whose old entry is still pending would resurrect that entry.
        Self-rescheduling components (:class:`PeriodicTask`, pacers) use
        this to avoid one :class:`EventHandle` allocation per occurrence.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        handle.time = time
        handle.cancelled = False
        self._seq += 1
        entry = (time, self._seq, handle, fn, args)
        if (
            self._cal_on
            and delay < _CAL_HORIZON
            and (self._cal_count or len(self._heap) >= _CAL_MIN_EVENTS)
        ):
            b = int(time * _CAL_INV)
            if b - self._cal_next_abs < _CAL_BUCKETS:  # see _push
                slot = b & _CAL_MASK
                bucket = self._cal_buckets[slot]
                if bucket:
                    if self._cal_sorted[slot]:
                        insort(bucket, entry, self._cal_pos[slot])
                    else:
                        bucket.append(entry)
                else:
                    self._cal_slot_abs[slot] = b
                    bucket.append(entry)
                count = self._cal_count
                self._cal_count = count + 1
                if count == 0 or b < self._cal_next_abs:
                    self._cal_next_abs = b
                return handle
        heapq.heappush(self._heap, entry)
        return handle

    def every(
        self,
        interval: float,
        fn: Callable[[], None],
        first_delay: Optional[float] = None,
        first_at: Optional[float] = None,
    ) -> PeriodicTask:
        """Run ``fn`` every ``interval`` seconds.

        The first firing is one ``interval`` from now unless ``first_delay``
        is given.  Components with identical periods (edge and core epochs)
        pass a randomized ``first_delay`` so they do not phase-lock: in a
        real network, routers' epoch clocks are not synchronized, and
        lockstep adaptation amplifies rate oscillations.  ``first_at``
        pins the first firing to an exact absolute time instead (see
        :class:`PeriodicTask`).
        """
        return PeriodicTask(self, interval, fn, first_delay=first_delay, first_at=first_at)

    def _cal_head(self) -> Tuple[Optional[Any], int]:
        """The earliest live calendar entry and its ring slot.

        Advances the scan frontier past empty/exhausted buckets, lazily
        sorts the bucket it lands on, and drains lazily-cancelled entries
        as it goes.  Returns ``(None, -1)`` when the calendar is empty.
        The entry is *not* consumed; the caller pops it by bumping
        ``_cal_pos[slot]`` and decrementing ``_cal_count``.
        """
        buckets = self._cal_buckets
        positions = self._cal_pos
        sorted_flags = self._cal_sorted
        slot_abs = self._cal_slot_abs
        b = self._cal_next_abs
        while self._cal_count:
            slot = b & _CAL_MASK
            bucket = buckets[slot]
            if bucket and slot_abs[slot] == b:
                if not sorted_flags[slot]:
                    bucket.sort()
                    sorted_flags[slot] = 1
                pos = positions[slot]
                n = len(bucket)
                while pos < n:
                    entry = bucket[pos]
                    handle = entry[2]
                    if handle is not None and handle.cancelled:
                        pos += 1
                        self._cal_count -= 1
                        continue
                    positions[slot] = pos
                    self._cal_next_abs = b
                    return entry, slot
                # Every entry consumed (or cancelled): recycle the bucket.
                bucket.clear()
                positions[slot] = 0
                sorted_flags[slot] = 0
                slot_abs[slot] = -1
            b += 1
        return None, -1

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order.

        With ``until`` set, execution stops once the next event would fire
        strictly after ``until`` and the clock is advanced to ``until``
        (events at exactly ``until`` do run).  Cancelled entries at the
        head of the event store are drained even when they lie beyond
        ``until``, so repeated bounded runs do not accumulate stale
        entries.  Without ``until`` the loop drains everything and the clock
        ends on the last booked delivery, if that is later.

        Each iteration dispatches the global ``(time, seq)`` minimum of
        the heap head and the calendar head, which is exactly the order a
        single heap would produce — replays are byte-identical with the
        calendar tier on or off.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        cal_head = self._cal_head
        buckets = self._cal_buckets
        positions = self._cal_pos
        sorted_flags = self._cal_sorted
        slot_abs = self._cal_slot_abs
        executed = 0
        try:
            while True:
                while heap:
                    hentry = heap[0]
                    handle = hentry[2]
                    if handle is not None and handle.cancelled:
                        pop(heap)
                        continue
                    break
                else:
                    hentry = None
                centry, slot = cal_head() if self._cal_count else (None, -1)
                if centry is not None:
                    # Whole-bucket fast path: when neither the heap head
                    # nor ``until`` can interleave with this bucket (two
                    # bucket widths of slack absorbs any float-boundary
                    # ambiguity in the time->bucket mapping), every entry
                    # in it runs back to back with no per-event merge.
                    # Callbacks may insert into this very bucket; insort
                    # places them at >= the current position, and the
                    # length re-check picks them up.
                    fence = (self._cal_next_abs + 2) * _CAL_WIDTH
                    if (hentry is None or hentry[0] >= fence) and (
                        until is None or until >= fence
                    ):
                        bucket = buckets[slot]
                        pos = positions[slot]
                        drained = pos
                        # ``pos`` stays local during the drain: mid-bucket
                        # inserts bisect over the whole (sorted) bucket,
                        # and consumed entries always compare smaller, so
                        # a stale ``_cal_pos`` cannot misplace them.
                        while pos < len(bucket):
                            entry = bucket[pos]
                            pos += 1
                            handle = entry[2]
                            if handle is not None and handle.cancelled:
                                continue
                            self.now = entry[0]
                            self._cur_seq = entry[1]
                            executed += 1
                            entry[3](*entry[4])
                        self._cal_count -= pos - drained
                        bucket.clear()
                        positions[slot] = 0
                        sorted_flags[slot] = 0
                        slot_abs[slot] = -1
                        continue
                if hentry is None:
                    if centry is None:
                        break
                    entry = centry
                elif centry is None or hentry < centry:
                    entry = hentry
                    slot = -1
                else:
                    entry = centry
                if until is not None and entry[0] > until:
                    break
                if slot < 0:
                    pop(heap)
                else:
                    # Recycle the bucket the moment its last entry is
                    # consumed: the scan frontier may jump past this slot
                    # and a stale exhausted bucket would shadow the next
                    # ring wrap (slot_abs would never match again).
                    pos = positions[slot] + 1
                    bucket = buckets[slot]
                    if pos == len(bucket):
                        bucket.clear()
                        positions[slot] = 0
                        sorted_flags[slot] = 0
                        slot_abs[slot] = -1
                    else:
                        positions[slot] = pos
                    self._cal_count -= 1
                self.now = entry[0]
                self._cur_seq = entry[1]
                executed += 1
                entry[3](*entry[4])
            if until is None:
                until = max((led[-1][0] for led in self._ledgers if led), default=0.0)
            if until > self.now:
                self.now = until
        finally:
            self._cur_seq = inf
            self.events_executed += executed
            self._running = False

    def run_window(self, until: float) -> None:
        """Execute one bounded window ``[now, until]`` of events.

        The conservative-PDES entry point: a partitioned cloud advances
        each partition's simulator window by window, exchanging
        cross-partition messages at the barriers.  Semantically this is
        exactly :meth:`run` with ``until`` set — events at ``until`` run,
        the clock lands on ``until`` even when idle — but the window
        bound is mandatory and must not lie in the past, so a driver bug
        cannot silently drain a partition to the end of time.

        Empty windows are O(1): with adaptive lookahead most barriers
        land between a partition's events, so the common case is "no
        live event at or before ``until``" — detected by a head peek and
        answered by bumping the clock without entering the run loop.
        """
        if until < self.now:
            raise SimulationError(
                f"cannot run a window into the past (until={until} < now={self.now})"
            )
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        head = self.peek_time()
        if head is None or head > until:
            if until > self.now:
                self.now = until
            return
        self.run(until=until)

    def inject(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Ingest an externally-generated event at absolute ``time``.

        Cross-partition deliveries enter through here at window barriers.
        Injection is only legal between :meth:`run_window` calls (never
        from inside a running callback — external events must not appear
        mid-window behind the dispatch cursor) and never into the past.
        The event joins the shared ``(time, seq)`` order exactly like a
        locally scheduled one, so the calendar tier and same-time
        tie-breaking keep working unchanged.
        """
        if self._running:
            raise SimulationError(
                "inject() is only legal between windows, not from inside run()"
            )
        if time < self.now:
            raise SimulationError(
                f"cannot inject into the past (t={time} < now={self.now})"
            )
        self._push(time, None, fn, args)

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event, or step onto the one
        booked delivery that precedes it; ``False`` if nothing is pending."""
        self.peek_time()  # settles what is due
        entry, slot = self._next_live()
        first = min(filter(None, self._ledgers), default=None)  # earliest head
        if first is not None and (entry is None or first[0][:2] < entry[:2]):
            self.now, seq, _packet = first[0]
            self._cur_seq = seq + 1  # exactly this one precedes the reader
            self.settle(first)
            self._cur_seq = inf
            return True
        if entry is None:
            return False
        if slot < 0:
            heapq.heappop(self._heap)
        else:
            pos = self._cal_pos[slot] + 1
            bucket = self._cal_buckets[slot]
            if pos == len(bucket):  # recycle, as in run()
                bucket.clear()
                self._cal_pos[slot] = 0
                self._cal_sorted[slot] = 0
                self._cal_slot_abs[slot] = -1
            else:
                self._cal_pos[slot] = pos
            self._cal_count -= 1
        self.now = entry[0]
        self._cur_seq = entry[1]
        self.events_executed += 1
        try:
            entry[3](*entry[4])
        finally:
            self._cur_seq = inf
        return True

    def _next_live(self) -> Tuple[Optional[Any], int]:
        """The next live entry without consuming it: ``(entry, slot)``
        where ``slot`` is the calendar ring slot or ``-1`` for the heap.
        Lazily-cancelled heads of both structures are drained."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                continue
            break
        hentry = heap[0] if heap else None
        centry, slot = self._cal_head() if self._cal_count else (None, -1)
        if hentry is None:
            return centry, slot
        if centry is None or hentry < centry:
            return hentry, -1
        return centry, slot

    # -- ledgers (module docstring) ---------------------------------------------

    def open_ledger(self, deliver: Callable[[Any, float], None]) -> Ledger:
        """A new ledger; ``deliver(packet, due)`` hands a delivery over."""
        ledger = Ledger()
        ledger.deliver = deliver
        self._ledgers.append(ledger)
        return ledger

    def book(self, ledger: Ledger, due: float, packet: Any) -> None:
        """Book ``packet``'s delivery at ``due >= now`` in place of an event."""
        self._seq += 1
        ledger.append((due, self._seq, packet))
        if len(ledger) > _LEDGER_CAP:
            self.settle(ledger)

    def settle(self, ledger: Ledger) -> None:
        """Hand over every booked delivery that precedes the caller."""
        now, seq, deliver = self.now, self._cur_seq, ledger.deliver
        while ledger:
            head = ledger[0]
            due = head[0]
            if due >= now and (due > now or head[1] >= seq):
                return
            ledger.popleft()
            deliver(head[2], due)

    def close_ledger(self, ledger: Ledger, fn: Callable[[Any], None]) -> None:
        """Retire ``ledger``: settle it, then schedule ``fn(packet)`` at its
        instant for each delivery still booked."""
        self.settle(ledger)
        self._ledgers.remove(ledger)
        for due, _seq, packet in ledger:
            self.schedule_at_fast(due, fn, packet)
        ledger.clear()

    def pending(self) -> int:
        """Stored entries (lazily-cancelled ones included) plus the booked
        deliveries still to come."""
        self.peek_time()  # settles what is due
        return len(self._heap) + self._cal_count + sum(map(len, self._ledgers))

    def peek_time(self) -> Optional[float]:
        """Time of the next live event or booked delivery, ``None`` if none."""
        entry, _slot = self._next_live()
        time = None if entry is None else entry[0]
        for ledger in self._ledgers:
            if ledger:
                self.settle(ledger)
                if ledger and (time is None or ledger[0][0] < time):
                    time = ledger[0][0]
        return time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending()})"
