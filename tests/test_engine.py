"""Unit tests for the discrete-event engine."""

import weakref
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import _LEDGER_CAP, Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


def test_initial_time_is_zero(sim):
    assert sim.now == 0.0


def test_schedule_runs_in_time_order(sim):
    order = []
    sim.schedule(2.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(3.0, order.append, "latest")
    sim.run()
    assert order == ["early", "late", "latest"]


def test_same_time_events_run_in_insertion_order(sim):
    order = []
    for i in range(5):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time(sim):
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0


def test_run_until_includes_events_at_boundary(sim):
    fired = []
    sim.schedule(2.0, fired.append, "boundary")
    sim.run(until=2.0)
    assert fired == ["boundary"]


def test_run_until_then_resume(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(3.0, fired.append, 3)
    sim.run(until=2.0)
    sim.run(until=4.0)
    assert fired == [1, 3]


def test_schedule_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def _noop():
    pass


def _offer_to_a_link_free_at_nan(sim, fired):
    """A departure-time link pushes its delivery onto the heap itself: a
    transmitter free at NaN makes a NaN delivery time, which it must refuse."""
    link = Link(sim, "A->B", "A", Node("B"), 10.0, 0.0, DropTailQueue(10))
    link._free_at = nan
    link.send(Packet.data(1, "A", "B", seq=0, now=sim.now, sim=sim))


#: Every way to put a time onto the heap, each handed NaN.  ``not t >= now``
#: is false for NaN as well, so none may slip past the past-check.
NAN_CALLS = {
    "schedule": lambda sim, fired: sim.schedule(nan, _noop),
    "schedule_at": lambda sim, fired: sim.schedule_at(nan, _noop),
    "schedule_fast": lambda sim, fired: sim.schedule_fast(nan, _noop),
    "schedule_at_fast": lambda sim, fired: sim.schedule_at_fast(nan, _noop),
    "reschedule": lambda sim, fired: sim.reschedule(nan, _noop, fired),
    "inject": lambda sim, fired: sim.inject(nan, _noop),
    "every(interval)": lambda sim, fired: sim.every(nan, _noop),
    "every(first_delay)": lambda sim, fired: sim.every(1.0, _noop, first_delay=nan),
    "every(first_at)": lambda sim, fired: sim.every(1.0, _noop, first_at=nan),
    "run_window": lambda sim, fired: sim.run_window(nan),
    "departure-time link": _offer_to_a_link_free_at_nan,
}


@pytest.mark.parametrize("entry", sorted(NAN_CALLS))
def test_nan_time_is_rejected_and_leaves_the_clock_alone(sim, entry):
    order = []
    fired = sim.schedule(0.5, order.append, "fired")
    sim.schedule(2.0, order.append, "later")
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        NAN_CALLS[entry](sim, fired)
    assert sim.now == 1.0
    assert sim.peek_time() == 2.0
    sim.run()
    assert order == ["fired", "later"]
    assert sim.now == 2.0
    assert sim.events_executed == 2


def test_cancel_prevents_execution(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_after_fire_is_noop(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.run()
    handle.cancel()  # must not raise
    assert fired == ["x"]


def test_events_can_schedule_events(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_event_args_are_passed(sim):
    seen = []
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


def test_step_runs_single_event(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False
    assert fired == [1, 2]


def test_step_skips_cancelled(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    handle.cancel()
    assert sim.step() is True
    assert fired == [2]


def test_events_executed_counter(sim):
    for i in range(7):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_peek_time(sim):
    assert sim.peek_time() is None
    h = sim.schedule(3.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    assert sim.peek_time() == 3.0
    h.cancel()
    assert sim.peek_time() == 5.0


def test_run_is_not_reentrant(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


def test_zero_delay_event_runs_now(sim):
    sim.schedule(1.0, lambda: sim.schedule(0.0, marks.append, sim.now))
    marks = []
    sim.run()
    assert marks == [1.0]


class TestCancelAfterFire:
    def test_double_cancel_after_fire_is_noop(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        handle.cancel()
        handle.cancel()  # idempotent, must not raise
        assert handle.cancelled
        assert fired == ["x"]

    def test_cancel_fired_event_does_not_disturb_pending(self, sim):
        fired = []
        first = sim.schedule(1.0, fired.append, "first")
        sim.schedule(2.0, fired.append, "second")
        sim.run(until=1.5)
        first.cancel()  # already fired; the pending event must survive
        sim.run(until=3.0)
        assert fired == ["first", "second"]

    def test_cancel_from_inside_own_callback(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: (fired.append("x"), handle.cancel()))
        sim.run()
        assert fired == ["x"]
        assert sim.events_executed == 1


class TestRunUntilBoundary:
    def test_schedule_at_exactly_until_fires(self, sim):
        fired = []
        sim.schedule_at(2.0, fired.append, "at-boundary")
        sim.schedule_at(2.0 + 1e-12, fired.append, "just-after")
        sim.run(until=2.0)
        assert fired == ["at-boundary"]
        assert sim.now == 2.0

    def test_boundary_event_not_replayed_on_resume(self, sim):
        fired = []
        sim.schedule_at(2.0, fired.append, "boundary")
        sim.run(until=2.0)
        sim.run(until=5.0)
        assert fired == ["boundary"]

    def test_event_scheduling_zero_delay_at_boundary_runs(self, sim):
        fired = []

        def at_boundary():
            fired.append("first")
            sim.schedule(0.0, fired.append, "chained")

        sim.schedule_at(2.0, at_boundary)
        sim.run(until=2.0)
        # the chained event lands at exactly t == until, so it runs too
        assert fired == ["first", "chained"]

    def test_periodic_tick_exactly_at_until(self, sim):
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.0)
        assert ticks == [1.0, 2.0, 3.0]


class TestPeriodicTask:
    def test_fires_every_interval(self, sim):
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_delay_offsets_phase(self, sim):
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), first_delay=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_cancels_future_firings(self, sim):
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        task.stop()
        assert task.stopped
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_from_within_callback(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = sim.every(1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_from_within_first_callback(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            task.stop()

        task = sim.every(1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0]
        assert task.stopped
        assert sim.peek_time() is None  # no orphaned reschedule left behind

    def test_stop_twice_is_idempotent(self, sim):
        ticks = []
        task = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=1.5)
        task.stop()
        task.stop()  # must not raise
        sim.run(until=5.0)
        assert ticks == [1.0]

    def test_non_positive_interval_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_negative_first_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.every(1.0, lambda: None, first_delay=-1.0)


class TestWindowInjectEdgeCases:
    """run_window/inject corner cases the PDES coordinator leans on."""

    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_inject_exactly_at_the_barrier_boundary(self, sim):
        # A cross-partition message can be timed exactly at the clock the
        # previous window landed on (deliver == t_next): it must inject
        # cleanly and run in the next window.
        fired = []
        sim.run_window(1.0)
        sim.inject(1.0, fired.append, "boundary")
        sim.inject(1.5, fired.append, "later")
        sim.run_window(1.0)  # zero-width window runs the boundary event
        assert fired == ["boundary"]
        assert sim.now == 1.0
        sim.run_window(2.0)
        assert fired == ["boundary", "later"]

    def test_injected_events_join_the_scheduled_time_order(self, sim):
        # Injected events land before, between and after 400 scheduled
        # ones: dispatch order is the global time order.
        fired = []
        for index in range(400):
            sim.schedule_at(0.001 * index, fired.append, ("sched", index))
        sim.inject(10.0, fired.append, ("far", 0))
        sim.inject(0.0005, fired.append, ("near", 0))
        sim.run(until=20.0)
        assert fired[0] == ("sched", 0)
        assert fired[1] == ("near", 0)
        assert fired[-1] == ("far", 0)
        assert len(fired) == 402
        assert sim.now == 20.0

    def test_past_inject_raises_cleanly_and_leaves_state_usable(self, sim):
        fired = []
        sim.run_window(2.0)
        with pytest.raises(SimulationError, match="past"):
            sim.inject(1.0, fired.append, "no")
        # The failed inject must not have half-registered anything.
        assert sim.peek_time() is None
        sim.inject(2.5, fired.append, "yes")
        sim.run_window(3.0)
        assert fired == ["yes"]

    def test_run_window_after_a_completed_run(self, sim):
        fired = []
        sim.schedule_at(0.5, fired.append, "a")
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.inject(4.5, fired.append, "b")
        sim.run_window(5.0)
        assert fired == ["a", "b"]
        assert sim.now == 5.0
        with pytest.raises(SimulationError, match="past"):
            sim.run_window(4.5)

    def test_empty_window_fast_path_advances_the_clock(self, sim):
        # No live event at or before the barrier: the window is O(1) and
        # only moves the clock; the far event stays queued.
        sim.schedule_at(9.0, lambda: None)
        sim.run_window(3.0)
        assert sim.now == 3.0
        assert sim.peek_time() == 9.0


# ---------------------------------------------------------------------------
# event order: the heap against a reference model
# ---------------------------------------------------------------------------


class _Token:
    """The one argument of a scheduled test event.  Only the engine's entry
    holds it, so its weakref dies exactly when the engine drops the entry."""

    __slots__ = ("label", "child", "handle", "__weakref__")

    def __init__(self, label, child):
        self.label = label
        self.child = child
        self.handle = None


class _Reference:
    """Everything pending in one dict keyed ``(time, seq)``, fired in
    ``sorted()`` order with cancelled entries skipped.  Items are
    ``("event", label, child, owner)``, ``("task", label, interval)`` and
    ``("booked", label, ledger)``; a fired event applies its child the way
    the test's callback does."""

    def __init__(self):
        self.seq = 0
        self.now = 0.0
        self.items = {}
        self.cancelled = set()
        self.current = {}  # cancel target label -> key of its latest entry
        self.fires_left = {}  # task label -> firings before it stops itself
        self.last_due = [0.0, 0.0]
        self.log = []
        self.events = 0

    def push(self, time, item, owner=None):
        self.seq += 1
        self.items[(time, self.seq)] = item
        if owner is not None:
            self.current[owner] = (time, self.seq)

    def book(self, ledger, due, label):
        self.last_due[ledger] = due = max(due, self.last_due[ledger])
        self.push(due, ("booked", label, ledger))

    def head(self):
        return min((key for key in self.items if key not in self.cancelled), default=None)

    def fire(self, key):
        item = self.items.pop(key)
        self.now = key[0]
        self.log.append(item[1])
        if item[0] == "booked":
            return
        self.events += 1
        if item[0] == "task":
            label = item[1]
            self.fires_left[label] -= 1
            if self.fires_left[label]:
                self.push(self.now + item[2], item, owner=label)
            return
        _kind, label, (child, dt), owner = item
        if child == "book":
            self.book(1, self.now + dt, "b" + label)
        elif child == "reschedule":
            if owner is not None:
                self.push(self.now + dt, ("event", label + "r", (None, 0.0), owner), owner)
        elif child is not None:
            owner = label + "c" if child in ("schedule", "schedule_at") else None
            self.push(self.now + dt, ("event", label + "c", (None, 0.0), owner), owner)

    def step(self):
        # Like any reader, a step first hands over what is already due.
        while (key := self.head()) and self.items[key][0] == "booked" and key[0] <= self.now:
            self.fire(key)
        if key is None:
            return False
        self.fire(key)
        return True

    def run(self, until=inf):
        while (key := self.head()) is not None and key[0] <= until:
            self.fire(key)
        if until != inf and until > self.now:
            self.now = until


def _grouped(log):
    """``log`` with each run of booked deliveries as one sorted tuple: a
    settle hands over what precedes the reader ledger by ledger, so only
    the set between two events is ordered, not the sequence inside it."""
    out, group = [], []
    for label in log:
        if label.startswith("b"):
            group.append(label)
            continue
        if group:
            out.append(tuple(sorted(group)))
            group = []
        out.append(label)
    if group:
        out.append(tuple(sorted(group)))
    return out


_DT = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0))
_CHILDREN = (None, "schedule", "schedule_at", "schedule_fast", "schedule_at_fast",
             "reschedule", "book")
_OPS = st.one_of(
    st.tuples(
        st.just("event"),
        st.sampled_from(["schedule", "schedule_at", "schedule_fast", "schedule_at_fast",
                         "inject"]),
        _DT,
        st.tuples(st.sampled_from(_CHILDREN), _DT),
    ),
    st.tuples(
        st.just("every"),
        st.sampled_from([0.25, 0.3, 1.0]),
        st.sampled_from(["interval", "first_delay", "first_at"]),
        _DT,
        st.integers(1, 4),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("book"), st.integers(0, 1), _DT),
    st.tuples(st.just("run"), _DT),
    st.tuples(st.just("step")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_heap_fires_in_reference_order(ops):
    """Every entry point, interleaved: the firing sequence is ``sorted()``
    over ``(time, seq)`` less the cancelled entries, each event sees exactly
    the booked deliveries before it, ``run(until=)`` runs what lies at
    ``until`` and drops cancelled heads beyond it."""
    sim = Simulator()
    ref = _Reference()
    log = []
    targets = {}  # cancel target label -> EventHandle / PeriodicTask
    tokens = {}  # event label -> weakref of its token
    ledgers = [
        sim.open_ledger(lambda label, source, due: log.append(label), None) for _ in range(2)
    ]
    last_due = [0.0, 0.0]

    def book(ledger, due, label):
        last_due[ledger] = due = max(due, last_due[ledger])
        sim.book(ledgers[ledger], due, label)

    def schedule(kind, label, dt, child):
        token = _Token(label, child)
        when = sim.now + dt if kind in ("schedule_at", "schedule_at_fast", "inject") else dt
        token.handle = getattr(sim, kind)(when, fire, token)
        if token.handle is not None:
            targets[label] = token.handle
        tokens[label] = weakref.ref(token)

    def fire(token):
        for ledger in ledgers:
            sim.settle(ledger)
        log.append(token.label)
        child, dt = token.child
        if child == "book":
            book(1, sim.now + dt, "b" + token.label)
        elif child == "reschedule":
            if token.handle is not None:
                again = _Token(token.label + "r", (None, 0.0))
                again.handle = sim.reschedule(dt, fire, token.handle, again)
                tokens[again.label] = weakref.ref(again)
        elif child is not None:
            schedule(child, token.label + "c", dt, (None, 0.0))

    def every(label, interval, first, dt, stop_after):
        fired = [0]

        def tick():
            for ledger in ledgers:
                sim.settle(ledger)
            log.append(label)
            fired[0] += 1
            if fired[0] == stop_after:
                task.stop()

        kwargs = {"interval": {}, "first_delay": {"first_delay": dt},
                  "first_at": {"first_at": sim.now + dt}}[first]
        task = targets[label] = sim.every(interval, tick, **kwargs)

    for index, op in enumerate(ops):
        if op[0] == "event":
            _, kind, dt, child = op
            label = f"e{index}"
            schedule(kind, label, dt, child)
            owner = label if kind in ("schedule", "schedule_at") else None
            ref.push(ref.now + dt, ("event", label, child, owner), owner)
        elif op[0] == "every":
            _, interval, first, dt, stop_after = op
            label = f"t{index}"
            every(label, interval, first, dt, stop_after)
            ref.fires_left[label] = stop_after
            delay = interval if first == "interval" else dt
            ref.push(ref.now + delay, ("task", label, interval), owner=label)
        elif op[0] == "cancel" and targets:
            label = sorted(targets)[op[1] % len(targets)]
            target = targets[label]
            if hasattr(target, "cancel"):
                target.cancel()
            else:  # a PeriodicTask
                target.stop()
            ref.cancelled.add(ref.current[label])
        elif op[0] == "book":
            # Outside run() a settle hands over all that is due by ``now``,
            # even behind a same-time event a step left pending; the cap's
            # settle must not fire here (inside run() it is exact).
            _, ledger, dt = op
            if len(ledgers[ledger]) < _LEDGER_CAP:
                book(ledger, sim.now + dt, f"b{index}")
                ref.book(ledger, ref.now + dt, f"b{index}")
        elif op[0] == "run":
            until = sim.now + op[1]
            sim.run(until=until)
            ref.run(until)
            head = ref.head() or (inf, inf)
            for key, item in ref.items.items():
                if key in ref.cancelled and key < head and item[0] == "event":
                    assert tokens[item[1]]() is None, f"cancelled {item[1]} not drained"
            peek = sim.peek_time()
            assert peek is None or peek > until
        elif op[0] == "step":
            assert sim.step() == ref.step()
        assert sim.now == ref.now

    sim.run()
    ref.run()
    assert sim.now == ref.now
    sim.peek_time()  # hands over what the drain left booked
    assert _grouped(log) == _grouped(ref.log)
    assert sim.events_executed == ref.events
    assert sim.pending() == 0


def test_a_booking_past_a_full_ledger_none_due_becomes_its_event():
    """A ledger at the cap that its settle cannot shorten (every delivery
    booked ahead of the clock) takes no more: the next booking leaves as an
    event under the seq it took, so the receiver, settling before it handles
    an event, still gets every delivery in ``(due, seq)`` order."""
    sim = Simulator()
    got = []

    def deliver(label, source, due=None):
        if due is None:
            sim.settle(ledger)
        got.append(label)

    ledger = sim.open_ledger(deliver, None)
    for label in range(_LEDGER_CAP + 1):
        sim.book(ledger, 1.0 + label, label)
    assert len(ledger) == _LEDGER_CAP and sim.pending() == _LEDGER_CAP + 1
    sim.run()
    assert got == list(range(_LEDGER_CAP + 1)) and sim.events_executed == 1
