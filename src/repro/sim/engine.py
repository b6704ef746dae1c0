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

Both tiers push ``(time, seq, handle, fn, args)`` onto one heap, and the
run loop pops it in ``(time, seq)`` order (a cancelled entry is dropped,
one past ``run(until=)`` pushed back).  Every scheduler rejects a time
that is not ``>= now`` — NaN included — with a
:class:`~repro.errors.SimulationError`.  The one writer of heap entries
outside this module, the departure-time link (:mod:`repro.sim.link`, "Hot
path"), pushes as :meth:`Simulator.schedule_at_fast` does, written out.

Ledgers
-------
A delivery that sends and schedules nothing (a packet's last hop, into an
egress that only records it) needs no event: it is *booked* in a
:class:`Ledger` under the seq an event would have taken and handed over —
``deliver(packet, source, due)``, the receiver and its in-link given when
the ledger was opened — before anything reads the state it changes.  The
ordering rule lives here: the run loop publishes the running event's seq
(``_cur_seq``), a reader running as event ``(T, r)`` sees exactly the
booked deliveries with ``(due, s) < (T, r)``, and one outside ``run()``
(``_cur_seq`` is ``inf``) those due by ``now``.  Booked deliveries count
in :meth:`pending` / :meth:`peek_time`, :meth:`step` steps onto them, a
draining ``run()`` ends with the clock on the last; ``events_executed``
does not count them.

Releases
--------
One writer of the clock lives outside the run loop: a releasing shaper
(:mod:`repro.core.shaping`, "Releases").  A flow whose departure times are
fixed until its next rate change runs the firings it owes before that
instant at once — from its own timer, or from inside its edge's epoch when
it parked there — with ``now`` set to each firing's instant and restored
after.  Its bound is :meth:`Simulator.fence`: the earliest of the instant
it names (its edge's next epoch), the bound of the running :meth:`run` (so
nothing is released past what a caller reads between runs or windows; a
:meth:`step` releases nothing) and the next instant registered with
:meth:`add_fence` at or after ``now``.  Whoever schedules a change to what
a release touches — a flow's on/off transition, a network event (which
reroutes at its own instant) — registers its instant there as it schedules
it.  A link needs none: its taps, drop listeners and arming are wired
before traffic flows (:mod:`repro.sim.link`).
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

__all__ = ["Simulator", "EventHandle", "PeriodicTask", "Ledger"]

#: The push that takes a ledger past this length settles it: delivered
#: packets are not held until the next read (``dense_vec`` peak RSS +24 % at
#: 1,024, +2 % at 32), and a settle per ~32 pushes costs nothing measurable.
#: If none was due (booked ahead: :mod:`repro.sim.link`), the new one is an event.
_LEDGER_CAP = 32


class Ledger(deque):
    """Booked deliveries ``(due, seq, packet)``, in that order, and the
    ``deliver(packet, source, due)`` that hands one over (module docstring)."""

    __slots__ = ("deliver", "source")


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
        if not interval > 0:
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

    @property
    def handle(self) -> EventHandle:
        """The one handle the task re-arms for its lifetime: its ``time`` is
        the next firing (while the task runs, the current one)."""
        return self._handle


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
        "_until",
        "_fences",
    )

    def __init__(self) -> None:
        #: Current virtual time in seconds.  Read-mostly; components must
        #: never assign it — only the run loop advances the clock, and a
        #: releasing shaper moves it through a release and back ("Releases").
        self.now = 0.0
        self._heap: List[Any] = []
        self._seq = 0
        self._running = False
        #: The last packet id handed out; ``Packet`` bumps it.  Owning the
        #: counter per simulator, not per process, makes packet ids a pure
        #: function of the simulation: a cloud built and run twice in one
        #: process, or in parallel workers, sees the same ids both times.
        self._next_pid = 0
        #: Total number of events executed so far (for micro-benchmarks).
        self.events_executed = 0
        self._cur_seq: float = inf  # seq of the running event ("Ledgers")
        self._ledgers: List[Ledger] = []
        self._until = -inf  # bound of the running run(), -inf outside ("Releases")
        self._fences: List[float] = []  # heap of instants from add_fence

    # Each scheduler is its past-check, a seq bump and one push, written out
    # in full: one Python frame per event is real money at millions of
    # events per run.  ``not x >= y`` is one comparison that NaN also fails.

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        handle = EventHandle(time)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle, fn, args))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        handle = EventHandle(time)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle, fn, args))
        return handle

    def schedule_fast(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a non-cancellable ``fn(*args)`` ``delay`` seconds from now.

        The hot-path variant of :meth:`schedule`: no :class:`EventHandle`
        is allocated and nothing is returned.  Use for fire-and-forget
        events (packet deliveries, source arrivals); anything that might
        need cancelling must go through :meth:`schedule`.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, None, fn, args))

    def schedule_at_fast(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Non-cancellable variant of :meth:`schedule_at` (see :meth:`schedule_fast`)."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, None, fn, args))

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
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        handle.time = time
        handle.cancelled = False
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle, fn, args))
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

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order.

        With ``until`` set, execution stops once the next event would fire
        strictly after ``until`` and the clock is advanced to ``until``
        (events at exactly ``until`` do run).  Cancelled entries at the
        head of the heap are drained even when they lie beyond ``until``,
        so repeated bounded runs do not accumulate stale entries.  Without
        ``until`` the loop drains everything and the clock ends on the last
        booked delivery, if that is later.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        stop = inf if until is None else until
        self._until = stop
        executed = 0
        try:
            while heap:
                time, seq, handle, fn, args = pop(heap)
                if handle is not None and handle.cancelled:
                    continue
                if time > stop:
                    heapq.heappush(heap, (time, seq, handle, fn, args))
                    break
                self.now = time
                self._cur_seq = seq
                executed += 1
                fn(*args)
            if until is None:
                until = max((led[-1][0] for led in self._ledgers if led), default=0.0)
            if until > self.now:
                self.now = until
        finally:
            self._cur_seq = inf
            self._until = -inf
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
        if not until >= self.now:
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
        locally scheduled one, so same-time tie-breaking keeps working
        unchanged.
        """
        if self._running:
            raise SimulationError(
                "inject() is only legal between windows, not from inside run()"
            )
        if not time >= self.now:
            raise SimulationError(
                f"cannot inject into the past (t={time} < now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, None, fn, args))

    def step(self) -> bool:
        """Execute exactly one (non-cancelled) event, or step onto the one
        booked delivery that precedes it; ``False`` if nothing is pending.

        What is due settles first, read from just before that event: a
        delivery booked at ``now`` after a same-time event that an earlier
        step left pending still waits for it."""
        entry = self._next_live()
        if entry is not None and entry[0] == self.now:
            self._cur_seq = entry[1]
        try:
            for ledger in self._ledgers:
                self.settle(ledger)
            first = min(filter(None, self._ledgers), default=None)  # earliest head
            if first is not None and (entry is None or first[0][:2] < entry[:2]):
                self.now, seq, _packet = first[0]
                self._cur_seq = seq + 1  # exactly this one precedes the reader
                self.settle(first)
                return True
            if entry is None:
                return False
            heapq.heappop(self._heap)
            self.now = entry[0]
            self._cur_seq = entry[1]
            self.events_executed += 1
            entry[3](*entry[4])
        finally:
            self._cur_seq = inf
        return True

    def _next_live(self) -> Optional[Any]:
        """The next live heap entry without consuming it (``None`` if
        none); lazily-cancelled heads are drained."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                continue
            return heap[0]
        return None

    # -- releases (module docstring) --------------------------------------------

    def add_fence(self, time: float) -> None:
        """Register ``time`` as an instant no release may reach: something
        scheduled then may change what a release touches."""
        if not time >= self.now:
            raise SimulationError(f"cannot fence the past (t={time} < now={self.now})")
        heapq.heappush(self._fences, time)

    def fence(self, time: float) -> float:
        """The earliest of ``time``, the bound of the running :meth:`run`
        and the next instant registered with :meth:`add_fence` at or after
        ``now``: a release runs only the firings strictly before it."""
        fences = self._fences
        now = self.now
        while fences and fences[0] < now:
            heapq.heappop(fences)
        if fences and fences[0] < time:
            time = fences[0]
        return time if time < self._until else self._until

    # -- ledgers (module docstring) ---------------------------------------------

    def open_ledger(self, deliver: Callable[[Any, Any, float], None], source: Any) -> Ledger:
        """A new ledger; ``deliver(packet, source, due)`` hands a delivery over."""
        ledger = Ledger()
        ledger.deliver = deliver
        ledger.source = source
        self._ledgers.append(ledger)
        return ledger

    def book(self, ledger: Ledger, due: float, packet: Any) -> None:
        """Book ``packet``'s delivery at ``due >= now`` in place of an event."""
        self._seq += 1
        ledger.append((due, self._seq, packet))
        if len(ledger) > _LEDGER_CAP:
            self.settle(ledger)
            if len(ledger) > _LEDGER_CAP:  # none was due: this one, under its seq
                ledger.pop()
                args = (packet, ledger.source)
                heapq.heappush(self._heap, (due, self._seq, None, ledger.deliver, args))

    def settle(self, ledger: Ledger) -> None:
        """Hand over every booked delivery that precedes the caller."""
        now, seq, deliver, source = self.now, self._cur_seq, ledger.deliver, ledger.source
        while ledger:
            head = ledger[0]
            due = head[0]
            if due >= now and (due > now or head[1] >= seq):
                return
            ledger.popleft()
            deliver(head[2], source, due)

    def pending(self) -> int:
        """Stored entries (lazily-cancelled ones included) plus the booked
        deliveries still to come."""
        self.peek_time()  # settles what is due
        return len(self._heap) + sum(map(len, self._ledgers))

    def peek_time(self) -> Optional[float]:
        """Time of the next live event or booked delivery, ``None`` if none."""
        entry = self._next_live()
        time = None if entry is None else entry[0]
        for ledger in self._ledgers:
            if ledger:
                self.settle(ledger)
                if ledger and (time is None or ledger[0][0] < time):
                    time = ledger[0][0]
        return time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending()})"
