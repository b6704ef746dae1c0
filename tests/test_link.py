"""Unit tests for link serialization, propagation and drops."""

from math import nan

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments import fastpaths
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketTrain
from repro.sim.queues import DropTailQueue, FifoQueue


class Sink(Node):
    def __init__(self, name, sim):
        super().__init__(name)
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, link):
        self.arrivals.append((self.sim.now, packet))


@pytest.fixture
def rig():
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=100.0, prop_delay=0.05,
                queue=DropTailQueue(4))
    return sim, link, sink


def data(seq=0):
    return Packet.data(1, "A", "B", seq=seq, now=0.0)


def test_single_packet_latency(rig):
    sim, link, sink = rig
    link.send(data())
    sim.run()
    # serialization 1/100 s + propagation 0.05 s
    assert sink.arrivals[0][0] == pytest.approx(0.06)


def test_back_to_back_packets_are_serialized(rig):
    sim, link, sink = rig
    for i in range(3):
        link.send(data(i))
    sim.run()
    times = [t for t, _ in sink.arrivals]
    assert times == pytest.approx([0.06, 0.07, 0.08])


def test_delivery_preserves_order(rig):
    sim, link, sink = rig
    for i in range(5):
        link.send(data(i))
    sim.run()
    # only 4 fit the queue... capacity 4 but the first starts transmitting
    seqs = [p.seq for _, p in sink.arrivals]
    assert seqs == sorted(seqs)


def test_queue_overflow_drops(rig):
    sim, link, sink = rig
    dropped = []
    link.add_drop_listener(lambda p, t: dropped.append(p.seq))
    # First packet dequeues immediately into the transmitter, so capacity 4
    # holds seqs 1-4; seqs 5+ drop.
    for i in range(7):
        assert link.send(data(i)) == (i <= 4)
    sim.run()
    assert dropped == [5, 6]
    assert len(sink.arrivals) == 5


def test_marker_serializes_in_zero_time(rig):
    sim, link, sink = rig
    link.send(Packet.marker(1, "A", "B", label=1.0, now=0.0))
    sim.run()
    assert sink.arrivals[0][0] == pytest.approx(0.05)  # propagation only


def test_marker_between_data_keeps_position(rig):
    sim, link, sink = rig
    link.send(data(0))
    link.send(Packet.marker(1, "A", "B", label=1.0, now=0.0))
    link.send(data(1))
    sim.run()
    kinds = [p.kind.name for _, p in sink.arrivals]
    assert kinds == ["DATA", "MARKER", "DATA"]


def test_arrival_tap_can_consume(rig):
    sim, link, sink = rig
    link.add_arrival_tap(lambda p, t: p.seq % 2 == 0)  # eat even seqs
    for i in range(4):
        link.send(data(i))
    sim.run()
    assert [p.seq for _, p in sink.arrivals] == [1, 3]


def test_invalid_parameters_rejected():
    sim = Simulator()
    sink = Sink("B", sim)
    for bandwidth, prop in ((0.0, 0.0), (1.0, -0.1), (nan, 0.0), (1.0, nan)):
        with pytest.raises(ConfigurationError):
            Link(sim, "L", "A", sink, bandwidth_pps=bandwidth, prop_delay=prop,
                 queue=DropTailQueue(4))
    with pytest.raises(ConfigurationError):
        DropTailQueue(nan)  # would refuse every data packet


def test_pipelining_multiple_packets_in_flight():
    """With propagation >> serialization several packets share the pipe."""
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=1000.0, prop_delay=1.0,
                queue=DropTailQueue(100))
    for i in range(10):
        link.send(data(i))
    sim.run()
    times = [t for t, _ in sink.arrivals]
    # arrivals are spaced by serialization (1 ms), all near t = 1 s
    assert times[0] == pytest.approx(1.001)
    assert times[-1] == pytest.approx(1.010)


# ---------------------------------------------------------------------------
# Departure-time FIFO: one delivery per packet, the tie rule, backlog watch,
# unarmed fail()
# ---------------------------------------------------------------------------


def marker():
    return Packet.marker(1, "A", "B", label=1.0, now=0.0)


def test_a_marker_behind_its_carrier_arrives_in_fifo_order_on_its_own_event(rig):
    sim, link, sink = rig
    carrier, parted, later = data(0), marker(), data(1)
    for packet in (carrier, parted, later):
        link.send(packet)
    sim.run()
    assert [p for _, p in sink.arrivals] == [carrier, parted, later]
    assert [t for t, _ in sink.arrivals] == pytest.approx([0.06, 0.06, 0.07])
    assert sim.events_executed == 3  # one delivery per packet


def test_marker_behind_a_dropped_data_packet_travels_alone():
    """Markers are standalone packets: the drop of the data packet a
    marker trails does not take the marker with it."""
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=100.0, prop_delay=0.05,
                queue=DropTailQueue(1))
    in_service, waiting, dropped = data(0), data(1), data(2)
    assert link.send(in_service) and link.send(waiting)
    assert link.send(dropped) is False
    orphan = marker()
    assert link.send(orphan)
    sim.run()
    assert [p for _, p in sink.arrivals] == [in_service, waiting, orphan]
    # Zero size: it leaves when the buffer ahead of it has drained.
    assert sink.arrivals[-1][0] == sink.arrivals[-2][0] == pytest.approx(0.07)

    # With nothing ahead of it the orphan gets an event of its own.
    lone = Link(sim, "A->B", "A", sink, bandwidth_pps=100.0, prop_delay=0.05,
                queue=DropTailQueue(1))
    too_big = Packet.data(1, "A", "B", seq=0, now=sim.now)
    too_big.size = 2.0
    before = sim.events_executed
    assert lone.send(too_big) is False
    assert lone.send(marker())
    sim.run()
    assert sim.events_executed == before + 1
    assert sink.arrivals[-1][1].size == 0.0 and len(sink.arrivals) == 4


def test_marker_does_not_ride_an_event_due_now():
    """prop_delay 0 on an idle link: a marker sent at the instant the
    previous one was delivered gets a delivery event of its own."""
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=100.0, prop_delay=0.0,
                queue=DropTailQueue(4))
    link.send(marker())
    sim.run()
    link.send(marker())  # same instant as the (fired) event above
    sim.run()
    assert len(sink.arrivals) == 2
    assert sim.events_executed == 2


def test_tie_rule_start_at_now_still_occupies_the_buffer():
    """A packet whose serialization starts exactly at the arrival instant
    still counts against the buffer for that arrival."""
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=10.0, prop_delay=0.0,
                queue=DropTailQueue(2))
    accepted = []

    def offer(seq):
        accepted.append((seq, link.send(data(seq))))

    for seq in range(3):  # 0 in service until 0.1; 1 and 2 fill the buffer
        offer(seq)
    sim.schedule_at(0.1, offer, 3)  # exactly when packet 1 starts
    sim.schedule_at(0.1000001, offer, 4)  # just after: one slot is free
    sim.run()
    assert accepted == [(0, True), (1, True), (2, True), (3, False), (4, True)]
    assert link.queue.stats.dropped_data == 1


def test_tie_rule_an_admitted_arrival_kicks_the_start_at_now():
    """...and once it is booked, the start at ``now`` happens: a second
    arrival at the same instant finds that slot free (a refused arrival,
    above, frees nothing)."""
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=10.0, prop_delay=0.0,
                queue=DropTailQueue(3))
    accepted = []

    def offer(seq):
        accepted.append((seq, link.send(data(seq))))

    for seq in range(3):  # 0 in service until 0.1; 1 and 2 wait
        offer(seq)
    for seq in (3, 4, 5):
        sim.schedule_at(0.1, offer, seq)  # all exactly when packet 1 starts
    sim.run()
    # 3 joins 1 and 2 (buffer full) and kicks 1 out; 4 takes that slot; 5
    # finds the buffer full again.
    assert accepted[3:] == [(3, True), (4, True), (5, False)]


def test_watch_backlog_fires_once_before_the_first_waiting_data_packet(rig):
    sim, link, sink = rig
    seen = []
    assert link.watch_backlog(lambda: None) is False  # until the plan turns it on
    fastpaths.plan((link,))
    assert link.watch_backlog(lambda: seen.append(link.queue.occupancy))
    link.send(marker())  # zero size: never waits
    link.send(data(0))  # idle transmitter: does not wait
    assert seen == []
    link.send(marker())  # transmitter busy, but markers occupy nothing
    assert seen == []
    link.send(data(1))  # has to wait
    assert seen == [0.0]  # called before the packet was booked
    link.send(data(2))
    assert seen == [0.0]  # one shot
    # Something is waiting now: the promise cannot be made.
    assert link.watch_backlog(lambda: None) is False
    sim.run()
    assert link.watch_backlog(lambda: None) is True


def test_watch_backlog_refused_off_the_departure_time_path():
    from repro.aqm.red import RedQueue

    sim = Simulator()
    sink = Sink("B", sim)
    red = Link(sim, "A->B", "A", sink, 100.0, 0.05, RedQueue(capacity=50.0))
    armed = Link(sim, "A->B", "A", sink, 100.0, 0.05, DropTailQueue(4))
    armed.enable_dynamics()
    fastpaths.plan((red, armed))  # neither is a departure-time link
    assert not any(link.watch_backlog(lambda: None) for link in (red, armed))


def test_a_fifo_with_its_own_admit_keeps_it():
    """The departure-time path inlines ``DropTailQueue.admit``; a FIFO that
    overrides only ``admit`` takes the queued path, where its rule decides."""

    class HalfBuffer(FifoQueue):
        def admit(self, packet, now):
            return self._occupancy + packet.size <= self.capacity / 2

    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, 100.0, 0.05, HalfBuffer(4))
    # One in service, two waiting fill half of 4; drop-tail would take all five.
    assert [link.send(data(i)) for i in range(5)] == [True, True, True, False, False]
    sim.run()
    assert link.queue.stats.dropped_data == 2
    assert [p.seq for _, p in sink.arrivals] == [0, 1, 2]


def test_enable_dynamics_with_packets_waiting_is_refused(rig):
    sim, link, sink = rig
    link.send(data(0))
    link.send(data(1))
    with pytest.raises(SimulationError, match="before traffic"):
        link.enable_dynamics()


class QuietSink(Sink):
    """A sink its feeding link books deliveries into ("Sinks")."""

    quiet_sink = True

    def receive(self, packet, link, at=None):
        self.arrivals.append((self.sim.now if at is None else at, packet))


def test_fail_on_unarmed_link_flushes_the_ledger_and_voids_deliveries():
    """Whether an unarmed ``fail()`` flushes the ledger and voids the
    deliveries: it does neither.  ``fail()`` arms a link that was never
    armed, and arming is wired before traffic flows: the failure raises and
    changes nothing — the link stays up, nothing is dropped, the queue and
    both ledgers (waiting, booked) are as they were, and every packet
    arrives.  Idle again, the link is still refused."""
    sim = Simulator()
    sink = QuietSink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=100.0, prop_delay=0.05,
                queue=DropTailQueue(4))
    fastpaths.plan((link,), last_hops={link: None})
    for i in range(4):
        link.send(data(i))
    sim.run(until=0.015)  # packet 1 is now in service, 2 and 3 wait

    def state():
        link.settle()
        stats = link.queue.stats
        return (
            link.up, link._dynamic, link.send.__func__, stats.dropped_data,
            link.queue.occupancy, list(link._ledger), list(link._booked),
        )

    before = state()
    assert len(before[5]) == 2 and len(before[6]) == 4  # waiting; booked, none due
    with pytest.raises(SimulationError, match="before traffic"):
        link.fail()
    assert state() == before
    sim.run()
    link.settle()
    assert [p.seq for _, p in sink.arrivals] == [0, 1, 2, 3]
    assert link.queue.stats.dropped_data == link.failure_drops == link.inflight_drops == 0
    with pytest.raises(SimulationError, match="A->B"):
        link.fail()
    assert link.up and not link._dynamic


def test_lazy_counters_read_current_without_an_explicit_settle():
    sim = Simulator()
    sink = Sink("B", sim)
    link = Link(sim, "A->B", "A", sink, bandwidth_pps=100.0, prop_delay=0.0,
                queue=DropTailQueue(10))
    for i in range(5):
        link.send(data(i))
    assert (link.queue.occupancy, len(link.queue)) == (4.0, 4)
    sim.run(until=0.025)  # starts at 0, 0.01, 0.02 have happened
    assert (link.queue.occupancy, len(link.queue)) == (2.0, 2)
    assert link.queue.time_average(0.025) == pytest.approx(
        (4 * 0.01 + 3 * 0.01 + 2 * 0.005) / 0.025
    )
    assert link._ledger is not None and link.backlog() == 2


def test_access_link_that_never_queues_allocates_no_ledger(rig):
    sim, link, sink = rig
    for i in range(3):
        link.send(data(i))
        link.send(marker())
        sim.run()
    assert link._ledger is None


# ---------------------------------------------------------------------------
# Differential oracle: departure-time path vs the real queue
# ---------------------------------------------------------------------------
#
# The queued path (``FifoQueue.push`` / ``pop``, ``_transmit_from``, one
# ``_wake`` per serialization gap) is what the departure-time path replaced
# on static drop-tail links, and it stays in ``src`` for the links that need
# packet objects in a queue — so it is the oracle.  One arrival schedule is
# driven through a link on each path; everything observable must be equal,
# floats included (``==``, not ``approx``).  Arrivals and probes are
# scheduled before the run, so at an equal instant they precede the
# oracle's wakeup in (time, seq) order — the case the tie rule states.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class _Observed:
    """One link, one path, and everything a run of it shows."""

    def __init__(self, capacity, bandwidth, prop, departure_time):
        self.sim = sim = Simulator()
        self.deliveries = []
        self.refused = []
        self.listened = []
        self.probes = []
        outer = self

        class Recorder(Node):
            def receive(self, packet, link):
                outer.deliveries.append((sim.now, packet.pid))

        self.link = link = Link(
            sim, "A->B", "A", Recorder("B"), bandwidth, prop, DropTailQueue(capacity)
        )
        link.add_drop_listener(lambda p, t: self.listened.append((t, p.pid)))
        assert link.send.__func__ is Link._send_fast
        if not departure_time:
            link.send = link._send_via_queue
            link.queue._port = None

    def offer(self, size):
        if size == 0:
            packet = Packet.marker(1, "A", "B", label=1.0, now=self.sim.now, sim=self.sim)
        elif size == 1:
            packet = Packet.data(1, "A", "B", seq=0, now=self.sim.now, sim=self.sim)
        else:
            packet = PacketTrain(1, "A", "B", 0, size, created_at=self.sim.now, sim=self.sim)
        if not self.link.send(packet):
            self.refused.append((self.sim.now, packet.pid))

    def probe(self):
        queue, now = self.link.queue, self.sim.now
        # No explicit settle: each read must bring the ledger up to date.
        self.probes.append((now, queue.time_average(now), queue.occupancy))

    def replay(self, arrivals, probes):
        for when, size in arrivals:
            self.sim.schedule_at(when, self.offer, size)
        for when in probes:
            self.sim.schedule_at(when, self.probe)
        self.sim.run()
        link = self.link
        assert link._wake_pending is False
        return {
            "deliveries": self.deliveries,
            "refused": self.refused,
            "listened": self.listened,
            "probes": self.probes,
            "dropped": link.queue.stats.dropped_data,
            "occupancy": link.queue.occupancy,
            "next_pid": self.sim._next_pid,
        }


def _realize(capacity, bandwidth, prop, steps):
    """Turn gap instructions into absolute arrival times by walking a
    departure-time link, whose ledger *is* the list of upcoming
    serialization starts: ``("boundary", j)`` lands the arrival exactly on
    the j-th of them (the last one being the instant the transmitter
    falls idle)."""
    walker = _Observed(capacity, bandwidth, prop, departure_time=True)
    sim, link = walker.sim, walker.link
    arrivals = []
    now = 0.0
    for size, (kind, value) in steps:
        if kind == "gap":
            now = now + value
        else:
            link.settle(now)
            starts = [entry[0] for entry in link._ledger or ()]
            starts.append(link._free_at)
            now = max(now, starts[min(value, len(starts) - 1)])
        sim.run(until=now)
        walker.offer(size)
        arrivals.append((now, size))
    return arrivals


_steps = st.lists(
    st.tuples(
        # Markers and scalars dominate; a few trains (size > 1).
        st.sampled_from([0, 0, 1, 1, 1, 1, 2, 3, 5]),
        st.one_of(
            st.just(("gap", 0.0)),  # same instant as the previous arrival
            st.tuples(st.just("gap"), st.floats(0.0, 0.05)),
            st.tuples(st.just("boundary"), st.integers(0, 4)),
        ),
    ),
    min_size=1,
    max_size=60,
)


@given(
    capacity=st.integers(1, 40),
    bandwidth=st.sampled_from([10.0, 100.0, 500.0, 333.0, 1000.0 / 3.0]),
    prop=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
    steps=_steps,
    probes=st.lists(st.floats(0.0, 3.0), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_departure_time_path_equals_the_real_queue(capacity, bandwidth, prop, steps, probes):
    arrivals = _realize(capacity, bandwidth, prop, steps)
    # Probe at a few arrival instants too (ties with starts included).
    probes = sorted(probes + [when for when, _size in arrivals[::7]])
    fast = _Observed(capacity, bandwidth, prop, departure_time=True)
    oracle = _Observed(capacity, bandwidth, prop, departure_time=False)
    seen = fast.replay(arrivals, probes)
    expected = oracle.replay(arrivals, probes)
    assert seen == expected
    # ...from fewer events: one per data packet accepted, at most one per
    # marker, nothing per serialization gap.
    assert fast.sim.events_executed <= oracle.sim.events_executed
    data_accepted = sum(
        1 for _when, size in arrivals if size
    ) - len(expected["refused"])
    markers = sum(1 for _when, size in arrivals if not size)
    assert (
        fast.sim.events_executed - len(arrivals) - len(probes)
        <= data_accepted + markers
    )


def test_oracle_walker_lands_arrivals_on_serialization_starts():
    """The property above is only as strong as its tie coverage: check
    that ``boundary`` steps really produce arrivals at exact starts, and
    that such an arrival meets a full buffer on both paths."""
    steps = [(1, ("gap", 0.0))] * 3 + [(1, ("boundary", 0)), (1, ("boundary", 1))]
    arrivals = _realize(2, 10.0, 0.0, steps)
    assert [when for when, _ in arrivals] == [0.0, 0.0, 0.0, 0.1, 0.2]
    fast = _Observed(2, 10.0, 0.0, departure_time=True).replay(arrivals, [0.1, 0.2])
    oracle = _Observed(2, 10.0, 0.0, departure_time=False).replay(arrivals, [0.1, 0.2])
    assert fast == oracle
    assert [when for when, _pid in fast["refused"]] == [0.1]
