"""A packet's last hop is a ledger entry: oracles for the ledger and the frames.

A departure-time link whose far end is an egress edge books the delivery of
a packet addressed to that edge instead of scheduling it (``repro.sim.link``,
"Sinks"; the ordering rule is ``repro.sim.engine``, "Ledgers") — every
delivery into a Corelite edge, every one a CSFQ edge's ``quiet_for`` vouches
sends nothing.  Event delivery survives here as a switch — ``Link._sink_of``
patched to answer ``None`` — and is the oracle: every cloud below runs once
each way and everything a run shows must be ``==``, floats included, with
``events_executed`` apart by exactly the last-hop delivery events.

The second half keeps the call chains the train frames replaced —
``_fire_train`` (since folded into ``_fire``), ``_emit_train`` and
``receive`` -> ``_deliver_train`` as they were at 9397da2 — and compares
pacer, injector and egress state after every packet and every train, with
releases off (a firing per train, as the chains fire).  The scalar frames'
chains are retired: the contract table (``tests/contract``) pins what they
produced.

Mutants that must fail here (each checked by hand when it was written, and
recorded in ``docs/PERF_LOG.md``): ``due <= now`` for the ``(due, seq)``
rule in ``Simulator.settle``; ``receive`` not settling before an
event-handed packet (either edge); a train firing without the
``min(burst, .)`` clamp; ``receive`` advancing a train's ``expected_seq`` by
1 or recording it with ``record``; ``quiet_for`` answering
``seq <= fed + 1``, reading ``fed_seq`` after folding the packet in or not
folding an ECN-marked packet in;
``CsfqEdge.receive`` recording a booked delay at ``sim.now``; a second
feeder taking over a node whose feeder left.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from math import nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.decbit import DecbitQueue
from repro.aqm.red import RedQueue
from repro.core import adaptation
from repro.core.config import CoreliteConfig
from repro.core.edge import CoreliteEdge, EdgeRouter, _DATA
from repro.core.shaping import _TOKEN_EPS, PacedSender
from repro.csfq.config import CsfqConfig
from repro.csfq.edge import CsfqEdge
from repro.errors import FlowError, SimulationError
from repro.experiments.builder import CloudBuilder
from repro.experiments.parallel import result_to_payload
from repro.experiments.scenarios import (
    WEIGHTS_41,
    mesh_flows,
    parking_lot_flows,
    topology1_flows,
)
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.sim import engine as engine_module
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketTrain
from repro.sim.queues import DropTailQueue
from repro.sim.sources import SourceSpec

from .conftest import count_admitted
from .contract import SERIAL_CLOUDS, _cloud
from .test_marker_carrier import _conservation_builder

# -- the switch, and everything a run shows ---------------------------------------


def _events_mode(patch):
    """Every delivery an event again, as before the ledger."""
    patch.setattr(Link, "_sink_of", staticmethod(lambda dst: None))


class _Census:
    """Counts, from outside, the deliveries the two modes trade, where the
    edge receives them: those the ledger hands over (``receive`` told the
    instant ``at``), and the delivery events of packets for the edge they
    reach (a link hands them over at ``now``).  Of those events, ``loud``
    counts the ones a CSFQ egress must take: a delivery that sends
    LOSS_NOTIFY, or a flow's first packet off its feeder (``first``).
    ``admitted`` counts each link's admitted data packets, which no mode
    may move."""

    def __init__(self, patch):
        self.booked = self.last_hop_events = self.loud = self.reports = 0
        self.first = set()
        self.admitted = count_admitted(patch)
        report_loss, quiet_for = CsfqEdge._report_loss, CsfqEdge.quiet_for
        census = self

        def counting(receive):
            def counting_receive(edge, packet, link, at=None):
                if at is not None:
                    census.booked += 1
                    receive(edge, packet, link, at)
                    return
                reports = census.reports
                receive(edge, packet, link)
                if link is not None and packet.dst == edge.name:
                    census.last_hop_events += 1
                    census.loud += census.reports > reports or packet.pid in census.first

            return counting_receive

        def counting_reports(edge, packet, gap, at):
            census.reports += 1
            report_loss(edge, packet, gap, at)

        def noting_first(edge, packet):
            slot = edge._egress_index.get(packet.flow_id)
            if slot is not None and edge._egress_flows[slot].fed_seq is None:
                census.first.add(packet.pid)
            return quiet_for(edge, packet)

        # Links bind ``dst.receive`` and ``quiet_for`` at construction:
        # patched before any build.
        for edge_class in (CoreliteEdge, CsfqEdge):
            patch.setattr(edge_class, "receive", counting(edge_class.receive))
        patch.setattr(CsfqEdge, "_report_loss", counting_reports)
        patch.setattr(CsfqEdge, "quiet_for", noting_first)


def _selector_state(selector):
    names = ("rav", "wav", "pw", "deficit", "markers_seen", "feedback_sent", "swaps")
    return tuple(getattr(selector, name, None) for name in names)


def _core_link_state(core, link_name):
    """A Corelite core link's selector, or a CSFQ core link's admission state."""
    if not hasattr(core, "machinery_for"):
        state = core.state_for(link_name)
        names = ("arrival_rate", "arrival_time", "arrival_pending", "accepted_rate",
                 "accepted_time", "accepted_pending", "alpha", "tmp_alpha", "congested",
                 "window_start", "prob_drops", "overflow_drops")
        return tuple(getattr(state, name) for name in names)
    return _selector_state(core.machinery_for(link_name).selector)


def _show(clouds, result):
    """What one run shows, as a dict of comparable sections.  ``clouds`` is
    the serial cloud, or every partition's, of either scheme (a CSFQ cloud
    has no markers)."""
    seen = {
        "flows": {
            fid: (
                record.delivered,
                record.losses,
                tuple(record.rate_series.values),
                tuple(record.throughput_series.values),
                tuple(record.cumulative_series.values),
                tuple(sorted(record.micro_delivered.items())),
            )
            for fid, record in sorted(result.flows.items())
        },
        "total_drops": result.total_drops,
        "dynamics": None
        if result.dynamics is None
        else (result.dynamics["reroutes"], result.dynamics["failure_drops"]),
        "events": [cloud.sim.events_executed for cloud in clouds],
        "rates": {},
        "markers": {},
        "selectors": {},
        "links": {},
        "unrouted": {},
        "tcp": {},
    }
    for cloud in clouds:
        for edge in cloud.edges.values():
            if not isinstance(edge, CoreliteEdge):
                seen["rates"].update((f, edge.allotted_rate(f)) for f in edge.ingress_flow_ids())
                continue
            for fid in edge.ingress_flow_ids():
                seen["rates"][fid] = edge.allotted_rate(fid)
                seen["markers"][fid, "injected"] = edge._ingress_state(
                    fid
                ).injector.markers_emitted
            for fid, slot in edge._egress_index.items():
                seen["markers"][fid, "received"] = edge._egress_flows[slot].markers_received
        for name in cloud.core_names:
            core = cloud.topology.nodes.get(name)
            if core is None:
                continue
            seen["unrouted"][name] = core.unrouted_drops
            for link_name in core.enabled_links():
                seen["selectors"][link_name] = _core_link_state(core, link_name)
        for name, link in cloud.topology.links.items():
            seen["links"][name] = (
                link.queue.stats.dropped_data, link.failure_drops, link.inflight_drops
            )
        for fid, (sender, receiver) in cloud.tcp_hosts.items():
            seen["tcp"][fid] = (sender.timeouts, receiver.delivered, receiver.duplicates)
    seen["payload"] = result_to_payload(result)
    seen["control_plane"] = [
        (cloud.control.delivered, cloud.control.lost, cloud.control.unroutable)
        for cloud in clouds
    ]
    seen["egress"] = {}
    for cloud in clouds:
        for edge in cloud.edges.values():
            seen["egress"][edge.name, "stray"] = (
                getattr(edge, "stray_notifications", None), getattr(edge, "stray_feedback", None)
            )
            for fid in edge._egress_index:
                state = edge._egress_state(fid)  # settles
                seen["egress"][edge.name, fid] = (
                    state.expected_seq, state.lost, getattr(state, "ecn_marks", None)
                )
    return seen


def _run_cloud(make, sample_interval=1.0, during=None):
    cloud, until = make()
    if during is not None:
        during(cloud)
    return _show([cloud], cloud.run(until=until, sample_interval=sample_interval))


def _run_parallel(make):
    parallel, until = make()
    session = parallel.start()
    try:
        result = parallel.execute(session, until)
        return _show([worker.cloud for worker in session.workers], result)
    finally:
        session.close()


def both(run, ledgered="all"):
    """``run()`` with the ledger and with events; every section equal, the
    event counts apart by the last-hop delivery events.  ``ledgered`` says
    how much of the run books its quiet last hops: ``"all"``, ``"some"`` (a
    link leaves mid-run) or ``"none"``.  Returns the ledger run's
    observation."""
    with pytest.MonkeyPatch.context() as patch:
        census = _Census(patch)
        ledger = run()
    with pytest.MonkeyPatch.context() as patch:
        oracle_census = _Census(patch)
        _events_mode(patch)
        events = run()
    assert oracle_census.booked == 0
    assert census.admitted == oracle_census.admitted
    for section in events:
        if section != "events":
            assert ledger[section] == events[section], section
    saved = sum(events["events"]) - sum(ledger["events"])
    if ledgered == "none":
        assert census.booked == saved == 0
        return ledger
    assert census.booked > 100, "the cloud does ledger deliveries"
    assert saved == census.booked  # one event per booked delivery
    if ledgered == "all":
        assert census.last_hop_events == census.loud, (
            "a quiet last-hop delivery was scheduled, not booked"
        )
        assert saved == oracle_census.last_hop_events - census.last_hop_events
    return ledger


# -- ledger == events -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SERIAL_CLOUDS))
def test_ledger_equals_event_delivery(name):
    # RED / WFQ on every link: no departure-time link, nothing to book.
    both(lambda: _run_cloud(SERIAL_CLOUDS[name]), "none" if name in ("red", "wfq") else "all")


def _inline_chain4():
    builder = CloudBuilder(TopologySpec.chain(4), seed=7)
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    builder.partitions = 2
    builder.pdes_mode = "inline"
    return builder.build_parallel(), 10.0


def test_ledger_equals_event_delivery_across_a_partition_cut():
    seen = both(lambda: _run_parallel(_inline_chain4))
    assert len(seen["events"]) == 2


def test_ledger_equals_event_delivery_for_trains():
    """A train's last hop is one entry; ``_deliver_train`` gets the instant."""

    def make():
        return _conservation_builder(train_batch=8, queue_capacity=400.0).build(), 12.0

    seen = both(lambda: _run_cloud(make, sample_interval=0.1))
    assert sum(flow[0] for flow in seen["flows"].values()) > 500


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
        both(lambda: _run_cloud(make, sample_interval))


# -- ties at an exact float instant ------------------------------------------------


class _Rig:
    """One Corelite egress behind one 100 pkt/s, 50 ms link."""

    def __init__(self, queue=None, prop=0.05):
        self.sim = Simulator()
        self.edge = CoreliteEdge("E", self.sim, CoreliteConfig())
        self.edge.expect_flow(1)
        self.link = Link(self.sim, "A->E", "A", self.edge, 100.0, prop, queue or DropTailQueue(8))
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
    rig.sim.schedule_at(DUE, rig.read)
    rig.send()
    rig.sim.run()
    assert rig.seen == [(DUE, 0)]
    assert rig.edge.delivered(1) == 1


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


# -- leaving the ledger -----------------------------------------------------------


def _leaver(action, at=5.0137):
    """Mid-run, on every link into an edge: ``action(link)``; then (for
    ``fail``) recovery a little later."""

    def during(cloud):
        sink_links = [
            link for link in cloud.topology.links.values() if link.dst.name in cloud.edges
        ]
        outcome = cloud.outcome = []

        def leave():
            for link in sink_links:
                try:
                    outcome.append((link.name, action(link)))
                except SimulationError as exc:  # packets waiting: equal both ways
                    outcome.append((link.name, str(exc)))

        cloud.sim.schedule_at(at, leave)
        cloud.sim.schedule_at(at + 0.5, lambda: [link.recover() for link in sink_links])

    return during


def _small_chain():
    spec = TopologySpec.chain(3, capacity_pps=120.0, queue_capacity=3.0)
    builder = CloudBuilder(spec, seed=9, config=CoreliteConfig(qthresh=1.0))
    for fid in range(1, 7):
        builder.add_flow(
            FlowPathSpec(
                fid, weight=1.0 + fid % 2, ingress_core="C1" if fid % 3 else "C2",
                egress_core="C3",
            )
        )
    return builder.build(), 8.0


@pytest.mark.parametrize(
    "action",
    [
        Link.fail,
        Link.enable_dynamics,
        lambda link: link.add_delivery_tap(lambda packet, now: None),
        lambda link: link.add_arrival_tap(lambda packet, now: None),
    ],
    ids=["fail", "enable_dynamics", "delivery_tap", "arrival_tap"],
)
def test_a_link_leaves_the_ledger_as_its_events_would_have_fared(action):
    seen = both(lambda: _run_cloud(_small_chain, 0.1, _leaver(action)), "some")
    assert sum(flow[0] for flow in seen["flows"].values()) > 300
    if action is Link.fail:
        assert sum(link[1] for link in seen["links"].values()) > 10  # refused while down


def test_left_ledger_strands_what_was_booked_and_goes_back_to_events():
    rig = _Rig()
    tapped = []
    for seq in range(3):
        rig.send(seq)
    rig.sim.run(until=DUE)  # 0 delivered; 1 and 2 booked, not due
    assert rig.edge.delivered(1) == 1
    assert len(rig.link._booked) == 2 and rig.edge.inbox is rig.link._booked
    rig.link.add_delivery_tap(lambda packet, now: tapped.append(packet.seq))
    # The node keeps its emptied inbox: it takes no other feeder.
    assert rig.link._booked is None and not rig.edge.inbox and not rig.sim._ledgers
    assert rig.edge.delivered(1) == 1
    rig.send(3)
    before = rig.sim.events_executed
    rig.sim.run()
    assert rig.sim.events_executed == before + 3  # two stranded, one new
    assert rig.edge.delivered(1) == 4
    assert tapped == [3]  # the stranded two were sent untapped


def test_fail_on_an_unarmed_sink_link_voids_what_waited_and_spares_what_had_left():
    """``tests/test_link.py``'s unarmed-``fail()`` case, into a sink: with
    packets waiting, a link that was never armed voids nothing, in either
    mode.  Arming is refused, so ``fail()`` raises, the link stays up, and
    what waited arrives as what had left does."""
    outcomes = []
    for events in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if events:
                _events_mode(patch)
            rig = _Rig(DropTailQueue(4))
            for seq in range(4):
                rig.send(seq)
            rig.sim.run(until=0.015)  # 1 in service; 2 and 3 wait
            with pytest.raises(SimulationError, match="before traffic"):
                rig.link.fail()
            assert rig.link.up and not rig.link._dynamic
            rig.sim.run()
            outcomes.append(
                (rig.edge.delivered(1), rig.edge.losses(1), rig.link.inflight_drops,
                 rig.link.queue.stats.dropped_data, rig.link.queue.occupancy)
            )
    assert outcomes[0] == outcomes[1] == (4, 0, 0, 0, 0.0)


# -- more than one in-link ---------------------------------------------------------


@pytest.mark.parametrize("second", ["plain", "red"])
def test_one_flow_arriving_over_two_links(second):
    """One feeder per node: the first in-link to book keeps the ledger, the
    other delivers by events, and an event-handed packet settles what was
    booked before it — the edge sees the arrivals in ``(due, seq)`` order
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


def _decbit_core(*more):
    """The core link's two directions mark (DECbit), the access links are
    plain drop-tail: a marked packet reaches a departure-time last hop."""
    made = []

    def queue():
        made.append(None)
        return DecbitQueue(capacity=40.0) if len(made) <= 2 else DropTailQueue(capacity=40.0)

    flows = [FlowPathSpec(fid, weight=float((fid + 1) // 2)) for fid in range(1, 7)]
    spec = TopologySpec.chain(2, capacity_pps=200.0)
    return _csfq(spec, flows + list(more), 15.0, 4, queue_factory=queue)()


CSFQ_CLOUDS = {
    "chain4": _csfq(TopologySpec.chain(4), topology1_flows(WEIGHTS_41, {}), 30.0),
    "parking-lot": _csfq(TopologySpec.parking_lot(3), parking_lot_flows(), 20.0, 5),
    "mesh": _csfq(TopologySpec.mesh(), mesh_flows(), 20.0, 2),
    "leaf-spine-flowlets": _csfq(
        TopologySpec.leaf_spine(2, 2, routing_mode="ecmp_flowlet", ecmp_flowlet_n_packets=8),
        _fabric_flows(),
        20.0,
    ),
    "lopsided-flowlets": _csfq(_lopsided_fabric(), _fabric_flows(), 20.0),
    "decbit-core": _decbit_core,
    # ``train_batch`` is inert for CSFQ: this cloud runs scalar.
    "train-8": _csfq(
        TopologySpec.chain(4), topology1_flows(WEIGHTS_41, {}), 30.0, train_batch=8
    ),
}


@pytest.mark.parametrize("name", sorted(CSFQ_CLOUDS))
def test_csfq_ledger_equals_event_delivery(name):
    """Only LOSS_NOTIFY senders and each flow's first packet take an event."""
    seen = both(lambda: _run_cloud(CSFQ_CLOUDS[name], sample_interval=0.1))
    egress = [state for key, state in seen["egress"].items() if key[1] != "stray"]
    assert sum(lost for _seq, lost, _ecn in egress) > 20, "the cloud loses packets"
    if name == "decbit-core":
        assert sum(ecn for _seq, _lost, ecn in egress) > 10


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
        _run_cloud(CSFQ_CLOUDS["lopsided-flowlets"])
    assert len(late) > 10 and all(late)


def _csfq_inline_chain4():
    builder = CloudBuilder(TopologySpec.chain(4), scheme="csfq", seed=7)
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    builder.partitions = 2
    builder.pdes_mode = "inline"
    return builder.build_parallel(), 20.0


def test_csfq_ledger_equals_event_delivery_across_a_partition_cut():
    seen = both(lambda: _run_parallel(_csfq_inline_chain4))
    assert len(seen["events"]) == 2


def _small_csfq_chain():
    flows = [
        FlowPathSpec(
            fid, weight=1.0 + fid % 2, ingress_core="C1" if fid % 3 else "C2", egress_core="C3"
        )
        for fid in range(1, 7)
    ]
    spec = TopologySpec.chain(3, capacity_pps=120.0, queue_capacity=3.0)
    return _csfq(spec, flows, 16.0, 9)()


def test_csfq_fail_on_an_unarmed_egress_link_leaves_the_ledger_as_events_would():
    """A failure arms the link, which leaves the ledger for good: what was
    handed to ``quiet_for`` before it arrives as the events it would have
    been, and nothing booked after it can find a hole the failure made."""
    seen = both(lambda: _run_cloud(_small_csfq_chain, 0.1, _leaver(Link.fail, 10.0137)), "some")
    assert sum(link[1] for link in seen["links"].values()) > 10  # refused while down


def test_csfq_a_booked_delivery_that_finds_a_gap_raises(monkeypatch):
    """Never a LOSS_NOTIFY stamped at settle time: a wrong ``quiet_for`` fails
    the run at the booked packet, by name."""
    monkeypatch.setattr(CsfqEdge, "quiet_for", lambda edge, packet: True)
    with pytest.raises(SimulationError, match=r"Eout\d+: flow \d+ seq \d+ was booked"):
        _run_cloud(CSFQ_CLOUDS["chain4"])


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
    refused while packets wait, and an armed link books nothing.)"""

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
    cloud, until = SERIAL_CLOUDS["chain4-selective"]()
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


# -- the train frames' call chains, as they were at 9397da2 --------------------------


def _fire_train_chain(self) -> None:
    """``PacedSender._fire_train`` -> ``_accrue`` x2 -> ``_train_delay`` ->
    ``_schedule`` -> ``reschedule``."""
    fired = self._handle
    self._handle = None
    if not self._running:
        return
    self._accrue()
    credit = self._credit
    if credit < 1.0 - _TOKEN_EPS:
        self._accrue()
        self._schedule(self._train_delay(), reuse=fired)
        return
    sent = self._train_emit(min(int(credit + _TOKEN_EPS), self._train_batch))
    if not self._running:
        return
    if not sent:
        self.idle_parks += 1
        return
    self._credit = max(0.0, self._credit - sent)
    self._last_emit = self._sim.now
    self._accrue()
    self._schedule(self._train_delay(), reuse=fired)


def _emit_train_chain(self, state, allowance) -> int:
    """``CoreliteEdge._emit_train`` -> keyword ``PacketTrain``, ``on_train``,
    ``forward``."""
    att = state.attachment
    now = self.sim.now
    n, micro_ids = allowance, None
    if state.mux is not None:
        picked = []
        while len(picked) < allowance and (micro := state.mux.pop()) is not None:
            picked.append(micro)
        if not picked:
            return 0
        n, micro_ids = len(picked), tuple(picked)
    elif state.backlog is not None:
        if state.backlog < 1:
            return 0
        n = min(n, state.backlog)
        state.backlog -= n
    train = PacketTrain(
        att.flow_id, self.name, att.dst_edge, state.seq, n, created_at=now, sim=self.sim
    )
    state.seq += n
    if micro_ids is not None:
        train.micro_ids, train.micro_id = micro_ids, micro_ids[0]
    if state.rate_estimator is not None:
        state.rate_estimator.update(now, float(n))
    due = state.injector.on_train(n)
    if due:
        rate = state.controller.rate
        if state.rate_estimator is not None:
            rate = min(rate, state.rate_estimator.rate)
        label = max(0.0, rate - att.min_rate) / att.weight
        train.origin_edge, train.label, train.marker_count = self.name, label, min(due, n)
        for _ in range(due - min(due, n)):
            self.forward(
                Packet.marker(att.flow_id, self.name, att.dst_edge, label, now, sim=self.sim)
            )
    self.forward(train)
    return n


def _deliver_train_chain(self, state, train, link) -> None:
    """``CoreliteEdge._deliver_train``: ``_sequence_gap``, ``record``, ``record_train``
    (micro-flow 0 left to ``delivered_by_micro``, as in the source)."""
    n = train.count
    if train.origin_edge is not None:
        state.markers_received += train.marker_count
    self._sequence_gap(state, train.seq, n)
    state.meter.record(n)
    spacing = 0.0 if link is None else 1.0 / link.bandwidth_pps
    state.delay.record_train(max(0.0, self.sim.now - train.created_at), n, spacing)
    for micro in train.micro_ids or ():
        state.micro_delivered[micro] = state.micro_delivered.get(micro, 0) + 1


_fire, _emit_train = PacedSender._fire, CoreliteEdge._emit_train
_receive = CoreliteEdge.receive


def _receive_train_chain(self, packet, link, *at) -> None:
    """``CoreliteEdge.receive`` -> ``_deliver_train`` for a train at its
    egress; every other packet takes the source's frame."""
    if packet.dst == self.name and packet.kind is _DATA and packet.count != 1:
        slot = self._egress_index.get(packet.flow_id)
        if slot is None:
            raise FlowError(f"{self.name}: packet for unexpected flow {packet.flow_id}")
        _deliver_train_chain(self, self._egress_flows[slot], packet, link)
        return
    _receive(self, packet, link, *at)


def _pacer_view(pacer):
    handle = pacer._handle
    return (
        pacer._rate, pacer._credit, pacer._last_accrual, pacer._last_emit, pacer._running,
        pacer.idle_parks,
        None if handle is None else (handle.time, handle.cancelled),
    )


def _logged_frames(patch, chains):
    """Install the frames (the chains, or the source's) with a log line of
    everything they touch after every firing and every edge ``receive``,
    and each flow's sends so far as the emit callbacks report them.  One
    ``_fire`` serves both modes: a train shaper's firing takes the chain."""
    fire_train, emit_train, receive = (_fire, _emit_train, _receive)
    if chains:
        fire_train, emit_train, receive = (
            _fire_train_chain, _emit_train_chain, _receive_train_chain
        )
    log = []
    sent = Counter()

    def counting(emit):
        def counted(edge, state, *allowance):
            n = emit(edge, state, *allowance)  # True / False, or a train's count
            sent[state.attachment.flow_id] += n
            return n

        return counted

    def logged_fire(pacer, *epoch):
        (fire_train if pacer._train_batch > 1 else _fire)(pacer, *epoch)
        flow = pacer._emit.args[0]
        injector, queue = flow.injector, flow.ext_queue
        log.append((
            "fire", pacer._sim.now, flow.attachment.flow_id, _pacer_view(pacer),
            (injector._credit, injector.markers_emitted, sent[flow.attachment.flow_id]),
            (flow.seq, flow.backlog, None if queue is None else len(queue),
             pacer._sim._next_pid),
        ))

    def logged_receive(edge, packet, link, *at):
        receive(edge, packet, link, *at)
        slot = edge._egress_index.get(packet.flow_id)
        if slot is not None:
            state, delay = edge._egress_flows[slot], edge._egress_flows[slot].delay
            log.append((
                "receive", edge.sim.now, packet.flow_id, packet.pid, packet.count,
                (state.markers_received, state.expected_seq, state.lost, state.meter.count),
                (delay.count, delay.total, delay.total_sq, delay.min, delay.max, delay._next,
                 tuple(delay._reservoir[-2:])),
                tuple(sorted(state.micro_delivered.items())),
            ))

    patch.setattr(PacedSender, "_fire", logged_fire)
    patch.setattr(CoreliteEdge, "_emit", counting(CoreliteEdge._emit))
    patch.setattr(CoreliteEdge, "_emit_train", counting(emit_train))
    patch.setattr(CoreliteEdge, "receive", logged_receive)
    return log


def _every_flow_kind():
    """Backlogged, deposit-fed, micro-flow mux, external (TCP), a ``min_rate``
    contract and sub-unit weights (several markers owed per packet), over a
    bottleneck that drops, as trains of up to 8.  They slow-start up to whole
    batches (so accrual meets the bucket's cap) into a buffer they fit in."""
    spec = TopologySpec.chain(2, capacity_pps=320.0, queue_capacity=12.0)
    config = CoreliteConfig(qthresh=3.0, ss_thresh=256.0)
    builder = CloudBuilder(spec, seed=11, config=config, train_batch=8)
    builder.add_flow(FlowPathSpec(1, weight=1.0))
    builder.add_flow(FlowPathSpec(2, weight=1.0, source=SourceSpec(kind="poisson", mean_rate=70.0)))
    builder.add_flow(
        FlowPathSpec(
            3, weight=2.0,
            micro_flows=tuple(
                (mid, SourceSpec(kind="poisson", mean_rate=50.0)) for mid in (1, 2, 3)
            ),
        )
    )
    builder.add_flow(FlowPathSpec(4, weight=1.0, transport="tcp"))
    builder.add_flow(FlowPathSpec(5, weight=1.0, min_rate=60.0))
    builder.add_flow(FlowPathSpec(6, weight=0.4))
    builder.add_flow(FlowPathSpec(7, weight=0.3, schedule=((1.0, 4.0), (5.0, 9.0))))
    return builder.build(), 10.0


@pytest.mark.parametrize("train_batch", [8], ids=["train-8"])
def test_frames_equal_their_call_chains_after_every_packet(train_batch):
    """Run in event mode, where the old ``receive`` can read ``sim.now``; the
    ledger's ``at`` is covered by every test above.  Every flow but the
    external one fires, emits and is recorded as trains, one firing per
    train: releases (``repro.core.shaping``) are off, as in the chains."""
    logs = []
    for chains in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            _events_mode(patch)
            patch.setattr(EdgeRouter, "_release_fence", lambda edge, state: None)
            log = _logged_frames(patch, chains)
            cloud, until = _every_flow_kind()
            result = cloud.run(until=until, sample_interval=0.1)
            logs.append((log, result_to_payload(result), cloud.sim.events_executed))
    (chain_log, chain_payload, chain_events), (frame_log, frame_payload, frame_events) = logs
    assert len(frame_log) == len(chain_log) > 2_000
    for i, (got, want) in enumerate(zip(frame_log, chain_log)):
        assert got == want, f"entry {i}"
    assert frame_payload == chain_payload and frame_events == chain_events
    counts = {entry[4] for entry in frame_log if entry[0] == "receive"}
    assert max(counts) == train_batch and 1 in counts
    fires = [entry for entry in frame_log if entry[0] == "fire"]
    assert {entry[2] for entry in fires} == set(range(1, 8))
    assert any(entry[3][5] for entry in fires)  # idle parks (deposit-fed flows ran dry)
    assert max(entry[4][1] for entry in fires if entry[2] == 7) > 2 * max(
        entry[4][2] for entry in fires if entry[2] == 7
    )  # weight 0.3: more than two markers per packet
