"""A packet's last hop is a ledger entry: the ledger's own rules.

A departure-time link whose far end is an egress edge books the delivery of
a packet addressed to that edge instead of scheduling it (``repro.sim.link``,
"Sinks"; the ordering rule is ``repro.sim.engine``, "Ledgers") — every
delivery into a Corelite edge, every one a CSFQ edge's ``quiet_for`` vouches
sends nothing.  Event delivery survives as a switch — no edge a quiet sink,
so the plan books for no link — for the rigs below, which pin the tie rule
and ``quiet_for`` packet by packet.  Whole clouds meet the per-packet datapath
(``tests/reference.py``): the contract table's under
``tests/test_reference.py``, and here the ones it does not hold — a
partition cut, CSFQ flowlet fabrics and a DECbit core — and random chains
with only the ledger off.  A link is tapped or armed before traffic flows, so
it never leaves a ledger (``test_reference.test_a_link_is_wired_before_traffic_flows``).
"""

from __future__ import annotations

import tracemalloc
from math import nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.decbit import DecbitQueue
from repro.aqm.red import RedQueue
from repro.core import adaptation
from repro.core.config import CoreliteConfig
from repro.core.edge import CoreliteEdge
from repro.csfq.config import CsfqConfig
from repro.csfq.edge import CsfqEdge
from repro.errors import SimulationError
from repro.experiments import fastpaths
from repro.experiments.builder import CloudBuilder
from repro.experiments.parallel import result_to_payload
from repro.experiments.scenarios import WEIGHTS_41, topology1_flows
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.sim import engine as engine_module
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue

from .contract import CLOUDS, EXACT, _cloud, replay
from .reference import differential, reference

# -- the switch, and whole clouds against the reference ----------------------------


def _events_mode(patch):
    """Every delivery an event again: no edge is a quiet sink, so the plan books for none."""
    for edge_cls in (CoreliteEdge, CsfqEdge):
        patch.setattr(edge_cls, "quiet_sink", False)


def both_partitioned(make):
    """``make()``'s partitioned run with the fast paths and in the
    reference: the result and every link's drops equal, fewer events."""

    def run():
        parallel, until = make()
        session = parallel.start()
        try:
            result = parallel.execute(session, until)
            clouds = [worker.cloud for worker in session.workers]
            drops = [
                (name, link.queue.stats.dropped_data, link.failure_drops, link.inflight_drops)
                for cloud in clouds
                for name, link in sorted(cloud.topology.links.items())
            ]
            events = [cloud.sim.events_executed for cloud in clouds]
            return (result_to_payload(result), drops), events
        finally:
            session.close()

    fast, fast_events = run()
    with reference():
        slow, slow_events = run()
    assert fast == slow
    assert len(fast_events) == 2 and sum(fast_events) < sum(slow_events)


def _inline_chain4(scheme="corelite", until=10.0):
    builder = CloudBuilder(TopologySpec.chain(4), scheme=scheme, seed=7)
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    builder.partitions = 2
    builder.pdes_mode = "inline"
    return builder.build_parallel(), until


def test_ledger_equals_event_delivery_across_a_partition_cut():
    both_partitioned(_inline_chain4)


def _ledger_against_events(make, sample_interval):
    """``make()``'s Corelite cloud with the ledger and with every delivery
    an event: the contract's exact fields equal, one event saved per
    delivery the ledger handed over (``receive`` told the instant ``at``)."""
    booked = [0]
    receive = CoreliteEdge.receive

    def counting(edge, packet, link, at=None):
        if at is None:
            receive(edge, packet, link)
        else:
            booked[0] += 1
            receive(edge, packet, link, at)

    with pytest.MonkeyPatch.context() as patch:
        # Links bind ``dst.receive`` when they are built.
        patch.setattr(CoreliteEdge, "receive", counting)
        ledger = replay(*make(), sample_interval)
    with pytest.MonkeyPatch.context() as patch:
        _events_mode(patch)
        events = replay(*make(), sample_interval)
    assert {f: ledger[f] for f in EXACT} == {f: events[f] for f in EXACT}, (ledger, events)
    assert booked[0] > 100, "the cloud does ledger deliveries"
    assert events["events"] - ledger["events"] == booked[0]


@settings(max_examples=15, deadline=None)
@given(
    capacities=st.lists(st.sampled_from([30.0, 60.0, 90.0, 150.0]), min_size=1, max_size=3),
    weights=st.lists(
        st.floats(min_value=0.3, max_value=4.0, allow_nan=False), min_size=2, max_size=6
    ),
    buffer=st.sampled_from([2.0, 5.0, 12.0, 40.0]),
    sample_interval=st.sampled_from([0.01, 0.1, 1.0]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_ledger_equals_event_delivery_on_random_chains(
    capacities, weights, buffer, sample_interval, seed
):
    """Random chain capacities x weights x buffers x sampling periods.  A
    0.01 s sampler is shorter than the 42 ms access transit, so reader and
    delivery seqs interleave: several samples fall between a booking and
    its instant."""
    cores = tuple(f"C{i}" for i in range(1, len(capacities) + 2))
    spec = TopologySpec(
        links=tuple(
            LinkSpec(a, b, capacity, 0.02)
            for a, b, capacity in zip(cores, cores[1:], capacities)
        ),
        cores=cores,
        queue_capacity=buffer,
        name="random-chain",
    )

    def make():
        config = CoreliteConfig(qthresh=min(8.0, buffer / 2))
        builder = CloudBuilder(spec, seed=seed, config=config)
        for fid, weight in enumerate(weights, start=1):
            builder.add_flow(
                FlowPathSpec(
                    fid,
                    weight=weight,
                    ingress_core=cores[fid % (len(cores) - 1)],
                    egress_core=cores[-1],
                )
            )
        return builder.build(), 6.0

    # Flows start at 24 pkt/s, so they load these short runs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adaptation, "INITIAL_RATE", 24.0)
        _ledger_against_events(make, sample_interval)


# -- ties at an exact float instant ------------------------------------------------


class _Rig:
    """One Corelite egress behind one 100 pkt/s, 50 ms link."""

    def __init__(self, queue=None, prop=0.05):
        self.sim = Simulator()
        self.edge = CoreliteEdge("E", self.sim, CoreliteConfig())
        self.edge.expect_flow(1)
        self.link = Link(self.sim, "A->E", "A", self.edge, 100.0, prop, queue or DropTailQueue(8))
        fastpaths.plan((self.link,), last_hops={self.link: None})
        self.seen = []

    def send(self, seq=0):
        return self.link.send(Packet.data(1, "A", "E", seq, self.sim.now, sim=self.sim))

    def read(self):
        self.seen.append((self.sim.now, self.edge.delivered(1)))


#: When the first packet sent at t = 0 is delivered, as the link computes it.
DUE = (0.0 + 1.0 / 100.0) + 0.05

MODES = pytest.mark.parametrize("events", [False, True], ids=["ledger", "events"])


@pytest.fixture
def rig(events, monkeypatch):
    if events:
        _events_mode(monkeypatch)
    rig = _Rig()
    assert (rig.link._sink is None) == events
    return rig


@MODES
def test_reader_scheduled_before_the_send_does_not_see_the_delivery(rig):
    stepped = _Rig()  # the same, driven one step at a time
    for each in (rig, stepped):
        each.sim.schedule_at(DUE, each.read)
        each.send()
    rig.sim.run()
    while stepped.sim.step():
        pass
    assert rig.seen == stepped.seen == [(DUE, 0)]
    assert rig.edge.delivered(1) == stepped.edge.delivered(1) == 1


@MODES
def test_reader_scheduled_after_the_send_sees_the_delivery(rig):
    rig.send()
    rig.sim.schedule_at(DUE, rig.read)
    rig.sim.schedule_at(DUE, rig.send, 1)  # booked inside the run, due later
    rig.sim.run()
    assert rig.seen == [(DUE, 1)]
    assert rig.edge.delivered(1) == 2


@MODES
def test_run_until_the_instant_includes_the_delivery(rig):
    rig.send()
    rig.sim.run(until=nextafter(DUE, 0.0))
    assert rig.edge.delivered(1) == 0
    assert rig.sim.pending() == 1 and rig.sim.peek_time() == DUE
    rig.sim.run(until=DUE)
    assert rig.edge.delivered(1) == 1
    assert rig.sim.pending() == 0 and rig.sim.peek_time() is None
    assert rig.edge.delay_stats(1).max == DUE  # the instant, not the read time


@MODES
def test_draining_run_ends_on_the_last_delivery(rig):
    rig.send()
    rig.send(1)
    rig.sim.run()
    assert rig.sim.now == DUE + 0.01
    assert rig.edge.delivered(1) == 2


@MODES
def test_step_steps_onto_each_delivery_in_order(rig, events):
    rig.send()
    rig.send(1)
    rig.sim.schedule_at(DUE, rig.read)  # after the first delivery, before the second
    assert rig.sim.step() and rig.sim.now == DUE and rig.edge.delivered(1) == 1
    assert rig.sim.step() and rig.seen == [(DUE, 1)]
    assert rig.sim.step() and rig.sim.now == DUE + 0.01 and rig.edge.delivered(1) == 2
    assert rig.sim.step() is False
    assert rig.sim.events_executed == (3 if events else 1)


# -- more than one in-link ---------------------------------------------------------


@pytest.mark.parametrize("second", ["plain", "red"])
def test_one_flow_arriving_over_two_links(second):
    """One feeder per node: the plan names ``A->E``, which keeps the ledger,
    the other delivers by events, and an event-handed packet settles what
    was booked before it — the edge sees the arrivals in ``(due, seq)`` order
    either way (the delay reservoir keeps that order), and the reordering
    across the two links reads as no loss."""

    def run():
        rig = _Rig()
        queue = DropTailQueue(8) if second == "plain" else RedQueue(capacity=40.0)
        other = Link(rig.sim, "B->E", "B", rig.edge, 100.0, 0.013, queue)
        links = (rig.link, other)

        def offer(seq):
            links[seq % 3 == 1].send(Packet.data(1, "A", "E", seq, rig.sim.now, sim=rig.sim))

        for seq in range(60):
            rig.sim.schedule_at(seq * 0.007, offer, seq)
        rig.sim.run()
        delay = rig.edge.delay_stats(1)
        return (
            rig.edge.delivered(1), rig.edge.losses(1), delay.summary(),
            tuple(delay._reservoir), rig.link._booked is not None, other._booked,
        )

    ledger = run()
    with pytest.MonkeyPatch.context() as patch:
        _events_mode(patch)
        events = run()
    assert ledger[:4] == events[:4]
    assert ledger[0] == 60 and ledger[1] == 0  # reordered across the two links, none lost
    assert ledger[4:] == (True, None) and events[4:] == (False, None)


# -- CSFQ: every delivery that provably sends nothing is booked ---------------------


def _csfq(spec, flows, until, seed=3, **kw):
    return _cloud(spec, flows, until, seed, scheme="csfq", **kw)


def _fabric_flows():
    return [
        FlowPathSpec(fid, weight=1.0 + fid % 3, ingress_core="L1", egress_core="L2")
        for fid in range(1, 9)
    ]


def _lopsided_fabric():
    """Two equal-delay spines, one a third as fast: a flowlet that switches
    spine overtakes or is overtaken, so late packets reach the egress."""
    links = (("L1", "S1", 500.0), ("S1", "L2", 500.0), ("L1", "S2", 150.0), ("S2", "L2", 150.0))
    return TopologySpec(
        links=tuple(LinkSpec(a, b, capacity, 0.01) for a, b, capacity in links),
        cores=("L1", "L2", "S1", "S2"),
        routing_mode="ecmp_flowlet",
        ecmp_flowlet_n_packets=8,
        name="lopsided-fabric",
    )


def _decbit_core():
    """The core link's two directions mark (DECbit), the access links are
    plain drop-tail: a marked packet reaches a departure-time last hop."""
    made = []

    def queue():
        made.append(None)
        return DecbitQueue(capacity=40.0) if len(made) <= 2 else DropTailQueue(capacity=40.0)

    flows = [FlowPathSpec(fid, weight=float((fid + 1) // 2)) for fid in range(1, 7)]
    spec = TopologySpec.chain(2, capacity_pps=200.0)
    return _csfq(spec, flows, 15.0, 4, queue_factory=queue)()


#: The CSFQ clouds the contract table and the drawn property have no kind of.
CSFQ_CLOUDS = {
    "leaf-spine-flowlets": _csfq(
        TopologySpec.leaf_spine(2, 2, routing_mode="ecmp_flowlet", ecmp_flowlet_n_packets=8),
        _fabric_flows(),
        20.0,
    ),
    "lopsided-flowlets": _csfq(_lopsided_fabric(), _fabric_flows(), 20.0),
    "decbit-core": _decbit_core,
}


@pytest.mark.parametrize("name", sorted(CSFQ_CLOUDS))
def test_csfq_ledger_equals_event_delivery(name):
    cloud = differential(CSFQ_CLOUDS[name], sample_interval=0.1)
    egress = [
        edge._egress_state(fid) for edge in cloud.edges.values() for fid in edge._egress_index
    ]
    assert sum(state.lost for state in egress) > 20, "the cloud loses packets"
    if name == "decbit-core":
        assert sum(state.ecn_marks for state in egress) > 10


def test_csfq_ledger_books_late_packets():
    """An overtaken packet is late, not lost: quiet, hence booked."""
    late = []
    receive = CsfqEdge.receive

    def watching(edge, packet, link, at=None):
        if at is None and edge.inbox:
            edge.sim.settle(edge.inbox)
        state = edge._egress_flows[edge._egress_index[packet.flow_id]]
        if packet.dst == edge.name and (state.expected_seq or 0) > packet.seq:
            late.append(at is not None)
        receive(edge, packet, link, at)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CsfqEdge, "receive", watching)
        cloud, until = CSFQ_CLOUDS["lopsided-flowlets"]()
        cloud.run(until=until)
    assert len(late) > 10 and all(late)


def test_csfq_ledger_equals_event_delivery_across_a_partition_cut():
    both_partitioned(lambda: _inline_chain4("csfq", 20.0))


def test_csfq_a_booked_delivery_that_finds_a_gap_raises(monkeypatch):
    """Never a LOSS_NOTIFY stamped at settle time: a wrong ``quiet_for`` fails
    the run at the booked packet, by name."""
    monkeypatch.setattr(CsfqEdge, "quiet_for", lambda edge, packet: True)
    with pytest.raises(SimulationError, match=r"Eout\d+: flow \d+ seq \d+ was booked"):
        cloud, until = CLOUDS["chain4-csfq"]()
        cloud.run(until=until)


SEQ_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.002, 0.011, 0.03]),  # gap before the send
        st.sampled_from(["A", "A", "A", "B"]),  # the in-link
        st.sampled_from(["next"] * 6 + ["skip", "back", "ecn"]),
    ),
    max_size=80,
)


@settings(max_examples=100, deadline=None)
@given(steps=SEQ_STEPS, second=st.sampled_from(["plain", "red"]))
def test_csfq_quiet_for_never_vouches_for_a_packet_that_finds_a_gap(steps, second):
    """Random seq streams over two in-links into one CSFQ egress: holes, the
    packets that left them sent later (overtaken), ECN marks and buffer
    drops on the 4-packet feeder (a CSFQ edge emits no trains).  Each seq is
    sent at most once, as an edge emits them.  ``quiet_for`` vouches for
    exactly the unmarked packets at or below the furthest seq its feeder
    has handed over before; each arrives in order or late, and the run
    equals event delivery.  (The
    feeder never fails here: ``fail()`` on a link that was never armed is
    refused once traffic has flowed, and an armed link books nothing.)"""

    def run():
        sim = Simulator()
        edge = CsfqEdge("E", sim, CsfqConfig())
        edge.expect_flow(1)
        reports = []
        edge.loss_channel = lambda notify: reports.append((sim.now, notify.label))
        queue = DropTailQueue(8) if second == "plain" else RedQueue(capacity=40.0)
        links = {
            "A": Link(sim, "A->E", "A", edge, 100.0, 0.05, DropTailQueue(4)),
            "B": Link(sim, "B->E", "B", edge, 100.0, 0.013, queue),
        }
        fastpaths.plan(links.values(), last_hops={links["A"]: None})
        top = 0

        def offer(via, seq, ecn):
            packet = Packet.data(1, via, "E", seq, sim.now, sim=sim)
            packet.ecn = ecn
            links[via].send(packet)

        at, held = 0.0, []
        for gap, via, what in steps:
            at += gap
            if what == "back" and held:
                seq = held.pop()  # overtaken: sent after its successors
            else:
                if what == "skip":
                    held += [top, top + 1]  # sent later by "back", or lost
                    top += 2
                seq, top = top, top + 1
            sim.schedule_at(at, offer, via, seq, what == "ecn")
        sim.run()
        delay = edge.delay_stats(1)
        return edge.delivered(1), edge.losses(1), reports, delay.summary()

    vouched, handed = set(), []
    quiet_for, receive = CsfqEdge.quiet_for, CsfqEdge.receive

    def vouching(edge, packet):
        quiet = quiet_for(edge, packet)
        assert quiet == (bool(handed) and packet.seq <= max(handed) and not packet.ecn)
        handed.append(packet.seq + 1)
        if quiet:
            vouched.add(packet.pid)
        return quiet

    def checking(edge, packet, link, at=None):
        if at is None and edge.inbox:
            edge.sim.settle(edge.inbox)
        if packet.pid in vouched:
            state = edge._egress_flows[0]
            assert not packet.ecn and packet.seq <= state.expected_seq, (packet, state.expected_seq)
        receive(edge, packet, link, at)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CsfqEdge, "quiet_for", vouching)
        patch.setattr(CsfqEdge, "receive", checking)
        ledger = run()
    with pytest.MonkeyPatch.context() as patch:
        _events_mode(patch)
        events = run()
    assert ledger == events


# -- bounded, and nothing allocated at build ---------------------------------------


def test_build_allocates_no_ledger_and_only_fed_edges_open_one():
    cloud, until = CLOUDS["chain4-selective"]()
    links = cloud.topology.links.values()
    assert all(link._booked is None for link in links) and not cloud.sim._ledgers
    assert all(node.inbox is None for node in cloud.topology.nodes.values())
    cloud.run(until=2.0)
    opened = {link.dst.name for link in links if link._booked is not None}
    assert opened == {spec.egress_edge for spec in cloud.flows.values()}
    assert len(cloud.sim._ledgers) == len(opened)


def test_a_run_nobody_reads_holds_a_bounded_ledger(monkeypatch):
    """1,000 s with no sampler: ~40,000 deliveries, never more than the cap
    booked on a link, and no growth in traced memory after warm-up."""
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=40.0), seed=1)
    builder.add_flow(FlowPathSpec(1, weight=1.0))
    builder.add_flow(FlowPathSpec(2, weight=2.0))
    cloud = builder.build()
    for fid, spec in cloud.flows.items():
        cloud._schedule_flow_traffic(fid, spec, 1000.0)
    longest = [0]
    book = Simulator.book

    def watching(sim, ledger, due, packet):
        book(sim, ledger, due, packet)
        longest[0] = max(longest[0], len(ledger))

    monkeypatch.setattr(Simulator, "book", watching)
    tracemalloc.start()
    try:
        cloud.sim.run(until=100.0)
        warm, _peak = tracemalloc.get_traced_memory()
        cloud.sim.run(until=1000.0)
        end, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cap = engine_module._LEDGER_CAP
    assert longest[0] == cap  # the push past it settles what is due
    assert sum(cloud.edges[s.egress_edge].delivered(f) for f, s in cloud.flows.items()) > 35_000
    assert end - warm < 256 * 1024, (warm, end)  # 40k held packets would be ~10 MB
