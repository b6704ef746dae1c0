"""Tests for the hot-path overhaul: fast-path scheduling, handle reuse,
bounded-run heap hygiene, the rebindable link datapath, the §4.1 chain's
event and frame budgets and the dense chain's frame budget (the flow-scale
replay pin is a contract-table row)."""

import heapq
import sys
from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue

from .conftest import pdes_scaling_builder


# ---------------------------------------------------------------------------
# fast-path scheduling
# ---------------------------------------------------------------------------


def test_schedule_fast_runs_and_returns_nothing(sim):
    fired = []
    assert sim.schedule_fast(1.0, fired.append, "x") is None
    sim.run()
    assert fired == ["x"]
    assert sim.now == 1.0


def test_schedule_at_fast_rejects_past_times(sim):
    sim.schedule_fast(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at_fast(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_fast(-0.1, lambda: None)


def test_same_timestamp_ordering_mixes_fast_and_handle_paths(sim):
    """Insertion order decides ties regardless of which tier scheduled."""
    order = []
    sim.schedule(1.0, order.append, "handle-0")
    sim.schedule_fast(1.0, order.append, "fast-1")
    sim.schedule(1.0, order.append, "handle-2")
    sim.schedule_at_fast(1.0, order.append, "fast-3")
    sim.schedule_at(1.0, order.append, "handle-4")
    sim.run()
    assert order == ["handle-0", "fast-1", "handle-2", "fast-3", "handle-4"]


def test_step_executes_fast_path_events(sim):
    fired = []
    sim.schedule_fast(1.0, fired.append, "a")
    assert sim.step() is True
    assert fired == ["a"]
    assert sim.step() is False


def test_peek_time_sees_fast_path_events(sim):
    sim.schedule_fast(2.5, lambda: None)
    assert sim.peek_time() == 2.5


# ---------------------------------------------------------------------------
# reschedule (handle reuse)
# ---------------------------------------------------------------------------


def test_reschedule_reuses_the_same_handle_object(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "first")
    sim.run()
    again = sim.reschedule(1.0, fired.append, handle, "second")
    assert again is handle
    assert handle.time == 2.0
    sim.run()
    assert fired == ["first", "second"]


def test_reschedule_revives_a_cancelled_consumed_handle(sim):
    """stop()-style cancellation after firing must not poison reuse."""
    fired = []
    handle = sim.schedule(1.0, fired.append, 1)
    sim.run()
    handle.cancel()  # its entry is already consumed; flag is stale
    sim.reschedule(1.0, fired.append, handle, 2)
    sim.run()
    assert fired == [1, 2]


def test_periodic_task_fires_every_interval(sim):
    times = []
    task = sim.every(1.0, lambda: times.append(sim.now))
    sim.run(until=4.5)
    assert times == [1.0, 2.0, 3.0, 4.0]
    task.stop()
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0, 4.0]


def test_periodic_task_stop_from_inside_its_own_callback(sim):
    """stop() racing _fire: stopping mid-callback must not re-arm."""
    fired = []

    def tick():
        fired.append(sim.now)
        task.stop()

    task = sim.every(1.0, tick)
    sim.run(until=10.0)
    assert fired == [1.0]
    assert task.stopped
    assert sim.pending() == 0


def test_periodic_task_stop_then_unrelated_events_continue(sim):
    fired = []
    task = sim.every(1.0, lambda: fired.append("tick"))
    sim.schedule(3.5, fired.append, "other")
    sim.run(until=1.5)
    task.stop()
    sim.run(until=5.0)
    assert fired == ["tick", "other"]


# ---------------------------------------------------------------------------
# bounded runs: cancelled-head hygiene, step interleaving
# ---------------------------------------------------------------------------


def test_run_until_drains_cancelled_heads_beyond_horizon(sim):
    """Stale cancelled entries must not pile up across bounded runs."""
    handles = [sim.schedule(10.0 + i, lambda: None) for i in range(50)]
    for handle in handles:
        handle.cancel()
    sim.run(until=1.0)
    assert sim.pending() == 0
    assert sim.now == 1.0


def test_repeated_bounded_runs_do_not_accumulate_stale_entries(sim):
    for round_no in range(20):
        handle = sim.schedule(1000.0, lambda: None)
        handle.cancel()
        sim.run(until=float(round_no + 1))
        assert sim.pending() == 0


def test_step_interleaved_with_bounded_run(sim):
    order = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule_fast(t, order.append, t)
    sim.run(until=2.0)
    assert order == [1.0, 2.0]
    assert sim.now == 2.0
    assert sim.step() is True  # executes the t=3 event past the old horizon
    assert order == [1.0, 2.0, 3.0]
    assert sim.now == 3.0
    sim.run(until=10.0)
    assert order == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 10.0


def test_run_not_reentrant_still_enforced(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule_fast(1.0, nested)
    sim.run()


# ---------------------------------------------------------------------------
# link datapath: rebindable fast paths, single event per hop
# ---------------------------------------------------------------------------


class _Sink(Node):
    def __init__(self, name="B"):
        super().__init__(name)
        self.received = []

    def receive(self, packet, link):
        self.received.append((packet, link.sim.now))


def _link(sim, sink, bw=100.0, prop=0.01, capacity=10):
    return Link(sim, "A->B", "A", sink, bw, prop, DropTailQueue(capacity))


def test_link_send_rebinds_on_arrival_tap(sim):
    sink = _Sink()
    link = _link(sim, sink)
    assert link.send.__func__ is Link._send_fast
    link.add_arrival_tap(lambda packet, now: None)
    assert link.send.__func__ is Link._send_tapped


def test_link_delivery_rebinds_on_delivery_tap(sim):
    sink = _Sink()
    link = _link(sim, sink)
    seen = []
    link.add_delivery_tap(lambda packet, now: seen.append(packet.pid))
    link.send(Packet.data(1, "A", "B", seq=0, now=0.0, sim=sim))
    sim.run()
    assert len(sink.received) == 1
    assert seen == [sink.received[0][0].pid]


def test_link_consuming_arrival_tap_blocks_packet(sim):
    sink = _Sink()
    link = _link(sim, sink)
    link.add_arrival_tap(lambda packet, now: packet.seq == 0)
    assert link.send(Packet.data(1, "A", "B", seq=0, now=0.0, sim=sim)) is False
    assert link.send(Packet.data(1, "A", "B", seq=1, now=0.0, sim=sim)) is True
    sim.run()
    assert [p.seq for p, _ in sink.received] == [1]


def test_link_one_event_per_data_packet_hop(sim):
    """A back-to-back burst costs one delivery event per packet and
    nothing else: departure times are computed at arrival, so there is no
    transmitter wakeup per serialization gap."""
    sink = _Sink()
    link = _link(sim, sink, bw=100.0, prop=0.0, capacity=100)
    n = 10
    for i in range(n):
        link.send(Packet.data(1, "A", "B", seq=i, now=0.0, sim=sim))
    sim.run()
    assert len(sink.received) == n
    assert sim.events_executed == n


def test_link_busy_property_tracks_serialization(sim):
    sink = _Sink()
    link = _link(sim, sink, bw=10.0, prop=0.0)
    assert link.busy is False
    link.send(Packet.data(1, "A", "B", seq=0, now=0.0, sim=sim))
    assert link.busy is True  # serializing for 0.1 s
    sim.run()
    assert link.busy is False


def test_link_same_instant_send_races_wakeup(sim):
    """A send scheduled at exactly the transmitter-free instant may run
    before the pending wakeup; delivery order must stay FIFO."""
    sink = _Sink()
    link = _link(sim, sink, bw=10.0, prop=0.0, capacity=10)

    def send(seq):
        link.send(Packet.data(1, "A", "B", seq=seq, now=sim.now, sim=sim))

    send(0)  # transmits 0.0 - 0.1
    send(1)  # queued; wakeup armed at 0.1
    sim.schedule_fast(0.1, send, 2)  # fires before the wakeup (earlier seq)
    sim.run()
    assert [p.seq for p, _ in sink.received] == [0, 1, 2]
    assert [t for _, t in sink.received] == pytest.approx([0.1, 0.2, 0.3])


def test_link_markers_keep_fifo_position_and_zero_time(sim):
    sink = _Sink()
    link = _link(sim, sink, bw=10.0, prop=0.0, capacity=10)
    link.send(Packet.data(1, "A", "B", seq=0, now=0.0, sim=sim))
    link.send(Packet.marker(1, "A", "B", label=1.0, now=0.0, sim=sim))
    link.send(Packet.data(1, "A", "B", seq=1, now=0.0, sim=sim))
    sim.run()
    kinds = [p.kind for p, _ in sink.received]
    times = [t for _, t in sink.received]
    assert kinds == [PacketKind.DATA, PacketKind.MARKER, PacketKind.DATA]
    assert times == pytest.approx([0.1, 0.1, 0.2])


# ---------------------------------------------------------------------------
# per-simulation packet ids (no global-counter fallback)
# ---------------------------------------------------------------------------


def test_cloud_run_never_touches_global_packet_counter(monkeypatch):
    """Every component must pass ``sim=``: a cloud run may not advance the
    process-global fallback id counter even once."""
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.topospec import FlowPathSpec, TopologySpec
    from repro.sim import packet as packet_mod

    class _Tripwire:
        def __init__(self):
            self.calls = 0

        def __next__(self):
            self.calls += 1
            return 10**9 + self.calls

    tripwire = _Tripwire()
    monkeypatch.setattr(packet_mod, "_packet_ids", tripwire)

    for scheme in ("corelite", "csfq"):
        builder = CloudBuilder(TopologySpec.chain(2), scheme=scheme, seed=0)
        builder.add_flow(FlowPathSpec(1, weight=1.0, ingress_core="C1", egress_core="C2"))
        builder.add_flow(FlowPathSpec(2, weight=3.0, ingress_core="C1", egress_core="C2"))
        cloud = builder.build()
        result = cloud.run(until=8.0)
        assert sum(r.delivered for r in result.flows.values()) > 0

    assert tripwire.calls == 0


# ---------------------------------------------------------------------------
# engine: same-timestamp ties, the periodic grid
# ---------------------------------------------------------------------------


def test_same_timestamp_ties_follow_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(280):  # a deep heap of later ties for the 40 to sift past
        sim.schedule_fast(2.0, order.append, ("ballast", i))
    for i in range(40):
        # Alternate the fast and handle paths at one shared timestamp:
        # both tiers draw from the same sequence counter.
        if i % 2:
            sim.schedule_at_fast(1.0, order.append, ("fast", i))
        else:
            sim.schedule_at(1.0, order.append, ("handle", i))
    sim.run(until=3.0)
    ties = [entry for entry in order if entry[0] != "ballast"]
    assert [entry[1] for entry in ties] == list(range(40))
    assert [entry[1] for entry in order[40:]] == list(range(280))


def test_periodic_task_first_at_pins_the_grid():
    sim = Simulator()
    fires = []
    sim.every(0.1, lambda: fires.append(sim.now), first_at=0.35)
    sim.run(until=1.0)
    assert fires[0] == pytest.approx(0.35)
    assert len(fires) == 7  # 0.35, 0.45, ..., 0.95


# ---------------------------------------------------------------------------
# core epoch-timer parking
# ---------------------------------------------------------------------------


def test_idle_core_links_park_their_epoch_timers():
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.topospec import FlowPathSpec, TopologySpec

    builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite", seed=0)
    builder.add_flow(FlowPathSpec(1, weight=1.0, ingress_core="C1", egress_core="C2"))
    builder.add_flow(FlowPathSpec(2, weight=2.0, ingress_core="C1", egress_core="C2"))
    cloud = builder.build()
    result = cloud.run(until=10.0)
    assert sum(r.delivered for r in result.flows.values()) > 0
    parked = []
    for name in cloud.core_names:
        router = cloud.core_router(name)
        for link_name in router.enabled_links():
            parked.append(router.machinery_for(link_name).parked)
    # The uncongested access links (egress data, reverse feedback paths)
    # go idle and pool their timers; a congested core link must not.
    assert any(parked)


def test_selective_fold_epoch_replays_wav_exactly():
    import random

    from repro.core.selective_feedback import SelectiveFeedback

    live = SelectiveFeedback(random.Random(1), lambda *a: None)
    parked = SelectiveFeedback(random.Random(1), lambda *a: None)
    counts = [3, 0, 0, 5, 1, 0]
    now = 0.0
    for count in counts:
        for i in range(count):
            live.observe(7, "E", 4.0 + i, now)
            parked.observe(7, "E", 4.0 + i, now)  # markers still traverse
        live.on_epoch(0, now)  # uncongested boundary, fired live
        now += 0.1
    for count in counts:  # the parked side replays the boundaries at once
        parked.fold_epoch(count)
    assert parked.wav == live.wav  # bit-identical, not approximately
    assert parked.rav == live.rav
    assert parked._epoch_marker_count == live._epoch_marker_count == 0
    assert parked.pw == live.pw == 0.0


# ---------------------------------------------------------------------------
# event budget of the §4.1 chain (departure-time links)
# ---------------------------------------------------------------------------


#: scheme -> (sim-s, events and link sends allowed per delivered packet, what
#: they read when the budget was written).  Both run 30 s: a flow releases
#: its shaper firings only past slow start (``repro.core.shaping``,
#: "Releases"), which the §4.1 flows leave near 6 s, and CSFQ's loss-driven
#: sources are still in slow start at 10 s (1,570 packets, timers dominate).
#: Corelite's event budget was 5.5 (4.9 measured) while a packet's last hop
#: into its egress edge was an event; it is a ledger entry now
#: (``repro.sim.link``, "Sinks"), one event less per delivered packet.
#: CSFQ's was 5.0 (4.75 measured) until its egress booked every in-sequence
#: delivery too (``CsfqEdge.quiet_for``).  Both were 4.0 (3.71 / 3.78
#: measured at 30 s) while every paced packet took a shaper firing of its own,
#: and read 2.87 / 2.85 events while a releasing shaper took a timer per epoch.
#: Corelite's was 3.2 (2.80 measured) and CSFQ's 3.0 (2.76) while a packet's
#: last core hop, into its flow's own egress link, was an event; its in-link
#: hands it over now (``repro.sim.link``, "Pass-through"): ~15 % above 1.80
#: and ~18 % above 1.75.
CHAIN_BUDGETS = {
    "corelite": (30.0, 2.07, 3.85, "1.80 / 3.52"),
    "csfq": (30.0, 2.07, 3.7, "1.75 / 3.58"),
}

#: leg -> shaper firings the engine dispatches per delivered packet on the
#: §4.1 chain.  Past slow start a shaper parks on its edge epoch, which
#: releases it in place, so nearly all of them are slow-start firings:
#: 0.104 (Corelite) / 0.021 (CSFQ) when this was written, budgets ~15 % and
#: ~40 % above.  They read 0.173 / 0.116 with a timer per flow per edge epoch
#: and 1.01 / 1.04 with a firing per packet.  Trains of 8 (``train-8``) fire
#: once per train in slow start: 0.0825 when this was written, budget ~15 %
#: above, and 0.588 while a train shaper past slow start fired by timer too.
CHAIN_FIRING_BUDGETS = {"corelite": 0.12, "csfq": 0.03, "corelite-train-8": 0.095}

#: Cancelled shaper entries the engine pops per delivered packet on the §4.1
#: chain: 0.0062 (Corelite) / 0.0048 (CSFQ) / 0.0063 (trains of 8) when
#: this was written; 0.074 / 0.100 while each edge epoch's ``set_rate``
#: cancelled the shaper timer the release before it had armed at the epoch
#: fence, 0.075 while it cancelled a train shaper's timer.
CHAIN_DEAD_ENTRY_BUDGET = 0.01


def test_paper_chain_event_budget(monkeypatch):
    _check_chain_event_budget(monkeypatch, "corelite")


def test_paper_chain_event_budget_csfq(monkeypatch):
    _check_chain_event_budget(monkeypatch, "csfq")


def _paper_chain(scheme, train_batch=1):
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.scenarios import WEIGHTS_41, topology1_flows
    from repro.experiments.topospec import TopologySpec

    builder = CloudBuilder(TopologySpec.chain(4), scheme=scheme, seed=0, train_batch=train_batch)
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    return builder.build()


def _check_chain_event_budget(monkeypatch, scheme):
    """§4.1 chain, 20 flows (the counts repeat exactly per seed).

    Every link of this cloud is a static drop-tail FIFO, so transmitter
    wakeups, per-marker deliveries and per-marker sends are simulator
    artefacts, not model work.  A reintroduced per-wakeup or per-marker
    event, or a marker that is a packet of its own at every hop again,
    fails here with a count instead of somewhere else with a digest
    mismatch.  A last hop into an egress edge is a ledger entry; a CSFQ
    egress takes an event only for a delivery that sends LOSS_NOTIFY and
    for each flow's first packet (``csfq_chain4`` in corebench).

    Deliveries are seen where the datapath cannot bypass them, at the
    receiving node (wrapped before the build: links bind ``receive``): an
    event hands the packet over with no ``at``, the ledger with one."""
    from repro.core.edge import CoreliteEdge
    from repro.core.router import CoreliteCoreRouter
    from repro.csfq.edge import CsfqEdge
    from repro.csfq.router import CsfqCoreRouter

    wakeups = []
    marker_events = []
    last_hop_events = []
    loss_notifies = []
    schedule_at_fast = Simulator.schedule_at_fast
    report_loss = CsfqEdge._report_loss

    def reporting(edge, packet, gap, at):
        loss_notifies.append(packet.flow_id)
        report_loss(edge, packet, gap, at)

    def counting(sim, time, fn, *args):
        if getattr(fn, "__name__", "") == "_wake":
            wakeups.append(fn.__self__.name)
        schedule_at_fast(sim, time, fn, *args)

    def observed(receive):
        def observing(node, packet, link, *at):
            if not at:
                if packet.size <= 0.0:
                    marker_events.append(link.name)
                if packet.dst == node.name:
                    last_hop_events.append(link.name)
            receive(node, packet, link, *at)

        return observing

    monkeypatch.setattr(Simulator, "schedule_at_fast", counting)
    monkeypatch.setattr(CsfqEdge, "_report_loss", reporting)
    for node_class in (CoreliteEdge, CoreliteCoreRouter, CsfqEdge, CsfqCoreRouter):
        monkeypatch.setattr(node_class, "receive", observed(node_class.receive))
    horizon, max_events, max_sends, measured = CHAIN_BUDGETS[scheme]
    cloud = _paper_chain(scheme)
    links = cloud.topology.links.values()
    assert all(link.send.__func__ is Link._send_fast for link in links)
    sends = []

    def counted(send):
        def wrapper(packet, *at):  # ``at``: a hop handed over ahead ("Pass-through")
            sends.append(packet.size)
            return send(packet, *at)

        return wrapper

    for link in links:
        link.send = counted(link.send)
    result = cloud.run(until=horizon)

    assert not wakeups, (
        f"{len(wakeups)} transmitter wakeups scheduled by static drop-tail "
        f"links, e.g. {sorted(set(wakeups))[:3]}: departure times are known "
        "at arrival, no link of this cloud needs one"
    )
    # The per-kind counts come first: each names its regression before the
    # aggregate budgets below can.
    delivered = sum(record.delivered for record in result.flows.values())
    if scheme == "csfq":
        assert len(loss_notifies) > 100  # the workload does lose packets
        assert len(last_hop_events) <= len(loss_notifies) + len(result.flows), (
            f"{len(last_hop_events)} delivery events scheduled toward an edge for "
            f"{len(loss_notifies)} LOSS_NOTIFYs issued and {len(result.flows)} flows: "
            "a CSFQ egress books every in-sequence delivery, only a gap (or each "
            "flow's first packet) takes an event"
        )
    else:
        assert not last_hop_events, (
            f"{len(last_hop_events)} delivery events scheduled toward an edge, e.g. "
            f"{sorted(set(last_hop_events))[:3]}: a Corelite egress only records, "
            "its in-link books the delivery instead"
        )
        marker_hops = sum(
            core.machinery_for(name).selector.markers_seen
            for core in map(cloud.core_router, cloud.core_names)
            for name in core.enabled_links()
        )
        assert marker_hops > 4_000  # the workload does carry markers
        assert len(marker_events) <= 0.01 * marker_hops, (
            f"{len(marker_events)} delivery events carried only a marker, of "
            f"{marker_hops} marker hops: a marker aboard its carrier costs no "
            "event, and only a marker parted from a dropped carrier costs one"
        )
    per_packet = cloud.sim.events_executed / delivered
    assert per_packet <= max_events, (
        f"{cloud.sim.events_executed} events for {delivered} delivered packets "
        f"= {per_packet:.2f} per packet (budget {max_events}; events / sends were "
        f"{measured} when this was written, 2.80 Corelite / 2.76 CSFQ with every "
        "last core hop an event, ~3.7 with a shaper firing per packet, ~8 with a "
        "wakeup per gap and an event per marker hop)"
    )
    sends_per_packet = len(sends) / delivered
    assert sends_per_packet <= max_sends, (
        f"{len(sends)} link sends ({sends.count(0.0)} of them zero-size) for "
        f"{delivered} delivered packets = {sends_per_packet:.2f} per packet "
        f"(budget {max_sends}; events / sends were {measured} when this was written, "
        "5.46 sends with every marker a packet of its own at every hop)"
    )


@pytest.mark.parametrize("leg", sorted(CHAIN_FIRING_BUDGETS))
def test_paper_chain_shaper_budget(monkeypatch, leg):
    """Past slow start a flow's shaper arms no timer, scalar or train: it
    parks on its edge epoch, which re-prices and releases it in place
    (``repro.core.shaping``, "Releases").  A reintroduced timer per flow per
    epoch fails here with a count of engine-dispatched firings and of the
    cancelled entries the epoch's ``set_rate`` leaves in the heap, both seen
    as the engine pops shaper entries."""
    from repro.core.shaping import PacedSender
    from repro.sim import engine

    scheme, _, batch = leg.partition("-train-")
    horizon = CHAIN_BUDGETS[scheme][0]
    firings = [0]
    dead_entries = [0]
    heappop = heapq.heappop

    def popping(heap):
        entry = heappop(heap)
        if (
            type(entry) is tuple  # not an ``add_fence`` instant
            and entry[2] is not None
            and isinstance(getattr(entry[3], "__self__", None), PacedSender)
        ):
            if entry[2].cancelled:
                dead_entries[0] += 1
            elif entry[0] <= horizon:  # not the one a bounded run pushes back
                firings[0] += 1
        return entry

    monkeypatch.setattr(engine, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=popping))
    result = _paper_chain(scheme, int(batch or 1)).run(until=horizon)
    delivered = sum(record.delivered for record in result.flows.values())
    budget = CHAIN_FIRING_BUDGETS[leg]
    assert firings[0] <= budget * delivered, (
        f"{firings[0]} shaper firings dispatched for {delivered} delivered packets "
        f"= {firings[0] / delivered:.3f} per packet (budget {budget}; 0.104 "
        "Corelite / 0.021 CSFQ / 0.0825 trains of 8 when this was written, "
        "0.173 / 0.116 / 0.588 with a timer per flow per edge epoch, "
        "1.01 / 1.04 with a firing per packet)"
    )
    assert dead_entries[0] <= CHAIN_DEAD_ENTRY_BUDGET * delivered, (
        f"{dead_entries[0]} cancelled shaper entries popped for {delivered} delivered "
        f"packets = {dead_entries[0] / delivered:.4f} per packet (budget "
        f"{CHAIN_DEAD_ENTRY_BUDGET}; 0.0062 Corelite / 0.0048 CSFQ / 0.0063 trains "
        "of 8 when this was written, 0.074 / 0.100 / 0.075 with a shaper "
        "timer re-armed at each epoch fence)"
    )


#: scheme -> Python frames entered per delivered packet while the §4.1 chain
#: runs to ``CHAIN_BUDGETS``' horizon, seed 0.  Measured 16.56 (Corelite) and
#: 15.24 (CSFQ) when this was written; 17.40 and 16.31 with a frame per
#: flow-epoch for each of the LIMD step, its clamp, the epoch tail, the
#: active list and the shaper's re-pricing helpers; 17.33 and 18.78 before
#: a flow's last core hop was handed over; 17.58 and 19.14 with a
#: shaper timer per flow per edge epoch, 19.17 and 20.89 with a shaper
#: firing frame per packet (budget 22 for both), 27.91 (Corelite, then at
#: 10 s) and 28.13 while every core hop ran a link trampoline and a
#: ``schedule_at_fast`` frame and every last hop a ledger trampoline
#: (``repro.sim.link``, "Hot path").
CHAIN_FRAME_BUDGETS = {"corelite": 17.0, "csfq": 16.0}

#: scheme -> Python frames entered per delivered packet on ``dense_scalar``'s
#: shape scaled to 64 flows (an 8-core chain, four local groups plus 1/16 of
#: the flows crossing C1 -> C8), 12 s at seed 0, where a flow-epoch costs
#: more than a packet hop.  Measured 26.10 (Corelite) and 23.58 (CSFQ) when
#: this was written; 31.03 and 29.23 with ~14 frames per flow-epoch (the
#: LIMD step, its clamp, the epoch tail, the active list and the shaper's
#: re-pricing helpers each a frame) and ~10 per flow per 1 s sample.
DENSE_FRAME_BUDGETS = {"corelite": 27.0, "csfq": 25.0}


def _frames_per_packet(cloud, until):
    """Python frames entered per delivered packet while ``cloud`` runs."""
    frames = 0

    def counting(frame, event, arg):
        nonlocal frames
        if event == "call":
            frames += 1

    sys.setprofile(counting)
    try:
        result = cloud.run(until=until)
    finally:
        sys.setprofile(None)
    delivered = sum(record.delivered for record in result.flows.values())
    return frames, delivered


@pytest.mark.parametrize("scheme", sorted(CHAIN_BUDGETS))
def test_paper_chain_frame_budget(scheme):
    """A hop costs the receiving node's frame and nothing in between: a
    reintroduced per-hop trampoline fails here with a frame count, which no
    event or send count sees."""
    frames, delivered = _frames_per_packet(_paper_chain(scheme), CHAIN_BUDGETS[scheme][0])
    per_packet = frames / delivered
    budget = CHAIN_FRAME_BUDGETS[scheme]
    assert per_packet <= budget, (
        f"{frames} Python frames for {delivered} delivered packets = "
        f"{per_packet:.2f} per packet (budget {budget}; 16.56 Corelite / 15.24 CSFQ "
        "when this was written, 17.40 / 16.31 with ~14 frames per flow-epoch, "
        "19.17 / 20.89 with a shaper firing per packet, ~28 with a trampoline per hop)"
    )


@pytest.mark.parametrize("scheme", sorted(DENSE_FRAME_BUDGETS))
def test_dense_chain_frame_budget(scheme):
    """An edge epoch and a sample are one pass per flow: a reintroduced
    per-flow trampoline in the epoch sweep, the LIMD step or the sampler
    fails here with a frame count, at results the contract table pins."""
    cloud = pdes_scaling_builder(64, 1, scheme=scheme).build()
    frames, delivered = _frames_per_packet(cloud, 12.0)
    per_packet = frames / delivered
    budget = DENSE_FRAME_BUDGETS[scheme]
    assert per_packet <= budget, (
        f"{frames} Python frames for {delivered} delivered packets = "
        f"{per_packet:.2f} per packet (budget {budget}; 26.10 Corelite / 23.58 CSFQ "
        "when this was written, 31.03 / 29.23 with ~14 frames per flow-epoch "
        "and ~10 per flow per sample)"
    )
