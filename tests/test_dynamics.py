"""Topology dynamics: link failure/recovery, rerouting, ECMP spraying.

Covers the unit semantics (NetworkEvent validation and JSON round trip,
Link.fail/recover drop accounting, generation-checked in-flight drops)
and the cloud-level behavior (chain failure partitions and recovery
reconnects, mesh failure reroutes onto the detour, same-timestamp events
execute in declaration order, links armed for failure keep their epoch
timer running, ECMP/flowlet modes spray across equal-cost next hops).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkDynamics, NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Router, _ecmp_index
from repro.sim.packet import Packet
from repro.sim.topology import Topology

from .conftest import CollectorNode


# ---------------------------------------------------------------------------
# NetworkEvent validation and serialization
# ---------------------------------------------------------------------------


def test_event_round_trips_through_dict():
    event = NetworkEvent(time=40.0, kind="link_down", a="A", b="B")
    assert NetworkEvent.from_dict(event.to_dict()) == event


def test_event_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        NetworkEvent(time=1.0, kind="link_flap", a="A", b="B")


def test_event_rejects_negative_and_nan_time():
    with pytest.raises(ConfigurationError):
        NetworkEvent(time=-1.0, kind="link_down", a="A", b="B")
    with pytest.raises(ConfigurationError):
        NetworkEvent(time=float("nan"), kind="link_down", a="A", b="B")


def test_event_rejects_identical_endpoints():
    with pytest.raises(ConfigurationError):
        NetworkEvent(time=1.0, kind="link_down", a="A", b="A")


def test_event_from_dict_rejects_unknown_keys_and_bad_link():
    with pytest.raises(ConfigurationError):
        NetworkEvent.from_dict(
            {"time": 1.0, "kind": "link_down", "link": ["A", "B"], "x": 1}
        )
    with pytest.raises(ConfigurationError):
        NetworkEvent.from_dict({"time": 1.0, "kind": "link_down", "link": "AB"})
    with pytest.raises(ConfigurationError):
        NetworkEvent.from_dict({"time": 1.0, "kind": "link_down"})


def test_event_pair_is_order_free():
    down = NetworkEvent(time=1.0, kind="link_down", a="B", b="A")
    up = NetworkEvent(time=2.0, kind="link_up", a="A", b="B")
    assert down.pair == up.pair == ("A", "B")


def test_spec_rejects_event_on_unknown_link():
    with pytest.raises(TopologyError):
        TopologySpec.chain(
            2, events=(NetworkEvent(time=1.0, kind="link_down", a="C1", b="C9"),)
        )


def test_spec_events_round_trip_through_dict():
    spec = TopologySpec.mesh(
        events=(
            NetworkEvent(time=40.0, kind="link_down", a="A", b="B"),
            NetworkEvent(time=80.0, kind="link_up", a="A", b="B"),
        ),
        routing_mode="ecmp",
    )
    again = TopologySpec.from_dict(spec.to_dict())
    assert again.events == spec.events
    assert again.routing_mode == "ecmp"


def test_dynamics_rejects_event_for_missing_topology_link():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node(Router("A"))
    topo.add_node(Router("B"))
    topo.add_duplex_link("A", "B", 500.0, 0.010)
    with pytest.raises(TopologyError):
        NetworkDynamics(
            sim, topo, [NetworkEvent(time=1.0, kind="link_down", a="A", b="Z")]
        )


# ---------------------------------------------------------------------------
# Link failure/recovery unit semantics
# ---------------------------------------------------------------------------


def _fill_queue(link, n, now=0.0):
    for seq in range(n):
        link.send(Packet.data(1, "A", "C", seq=seq, now=now))


def test_fail_flushes_queue_as_queue_drops(line_topology):
    topo, a, b, c = line_topology
    link = topo.links["A->B"]
    link.enable_dynamics()  # as a scheduled failure arms it, at build time
    _fill_queue(link, 5)
    before = link.queue.stats.dropped_data
    flushed = link.fail()
    # One packet is serializing (not in the queue); the rest flush.
    assert flushed == 4
    assert link.queue.stats.dropped_data == before + flushed
    assert link.failure_drops == 0  # flush is booked as queue drops only
    assert not link.up


def test_send_while_down_counts_failure_drops(line_topology):
    topo, a, b, c = line_topology
    link = topo.links["A->B"]
    link.fail()
    assert link.send(Packet.data(1, "A", "C", seq=0, now=0.0)) is False
    assert link.failure_drops == 1
    # Markers vanish without accounting: they carry no payload.
    assert link.send(Packet.marker(1, "A", "C", label=0.0, now=0.0)) is False
    assert link.failure_drops == 1


def test_fail_strands_packets_in_flight(line_topology):
    """A packet already in the propagation pipe is dropped when its
    delivery event fires after the failure."""
    topo, a, b, c = line_topology
    sim = topo.sim
    link = topo.links["B->C"]
    link.enable_dynamics()
    link.send(Packet.data(1, "B", "C", seq=0, now=0.0))
    sim.run(until=0.005)  # serialized (2 ms), now mid-propagation (10 ms)
    link.fail()
    sim.run(until=1.0)
    assert c.packets == []
    assert link.inflight_drops == 1


def test_recovery_before_delivery_still_drops_stranded_packet(line_topology):
    """The generation check is what strands a packet — not the link's up
    flag at delivery time.  Fail then recover before the delivery event
    fires: the packet must still be lost."""
    topo, a, b, c = line_topology
    sim = topo.sim
    link = topo.links["B->C"]
    link.enable_dynamics()
    link.send(Packet.data(1, "B", "C", seq=0, now=0.0))
    sim.run(until=0.005)
    link.fail()
    link.recover()  # instant repair, before the delivery event at ~12 ms
    sim.run(until=1.0)
    assert c.packets == []
    assert link.inflight_drops == 1
    # The recovered link carries fresh traffic normally.
    link.send(Packet.data(1, "B", "C", seq=1, now=sim.now))
    sim.run(until=2.0)
    assert [p.seq for p in c.packets] == [1]


def test_fail_is_idempotent_and_recover_on_up_link_is_noop(line_topology):
    topo, a, b, c = line_topology
    link = topo.links["A->B"]
    link.recover()  # up already: no-op
    assert link.up
    assert link.fail() == 0  # empty queue
    assert link.fail() == 0  # already down
    link.recover()
    assert link.up


def test_rebuild_routes_excludes_failed_link(line_topology):
    topo, a, b, c = line_topology
    topo.links["B->C"].fail()
    topo.links["C->B"].fail()
    topo.rebuild_routes()
    # B has no route to C any more; A has no route to B's far side.
    assert "C" not in a.routes()
    assert "C" not in b.routes()
    topo.links["B->C"].recover()
    topo.links["C->B"].recover()
    topo.rebuild_routes()
    assert a.routes()["C"] is topo.links["A->B"]


def test_router_drop_unrouted_counts_data_only(line_topology):
    topo, a, b, c = line_topology
    a.drop_unrouted = True
    a.install_routes({})  # blank the table (and the uplink: A has one link)
    assert a.forward(Packet.data(1, "A", "C", seq=0, now=0.0)) is False
    assert a.forward(Packet.marker(1, "A", "C", label=0.0, now=0.0)) is False
    assert a.unrouted_drops == 1


# ---------------------------------------------------------------------------
# Scheduled dynamics against a live topology
# ---------------------------------------------------------------------------


def _chain_cloud(events, *, scheme="corelite", seed=5):
    spec = TopologySpec.chain(3, events=events)
    builder = CloudBuilder(spec, scheme=scheme, seed=seed)
    builder.add_flow(FlowPathSpec(flow_id=1, weight=1.0, ingress_core="C1", egress_core="C3"))
    builder.add_flow(FlowPathSpec(flow_id=2, weight=2.0, ingress_core="C2", egress_core="C3"))
    return builder.build()


def test_chain_failure_partitions_and_recovery_reconnects():
    cloud = _chain_cloud(
        (
            NetworkEvent(time=8.0, kind="link_down", a="C1", b="C2"),
            NetworkEvent(time=16.0, kind="link_up", a="C1", b="C2"),
        )
    )
    result = cloud.run(until=30.0)
    record = result.record(1)
    # Delivery stops during the outage and resumes after recovery.
    outage = record.throughput_series.window(10.0, 16.0)
    assert max(outage.values, default=0.0) == 0.0
    recovered = record.throughput_series.window(20.0, 30.0)
    assert min(recovered.values) > 0.0
    assert len(result.dynamics["events"]) == 2
    assert cloud.dynamics.failure_drops() > 0


def test_mesh_failure_reroutes_onto_detour():
    spec = TopologySpec.mesh(
        events=(NetworkEvent(time=10.0, kind="link_down", a="A", b="B"),)
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=3)
    builder.add_flow(FlowPathSpec(flow_id=1, weight=1.0, ingress_core="A", egress_core="B"))
    cloud = builder.build()
    before = cloud.flow_path_links(1)
    assert "A->B" in before
    result = cloud.run(until=40.0)
    after = cloud.flow_path_links(1)
    assert "A->B" not in after and len(after) > len(before)
    # The flow keeps delivering over the detour.
    tail = result.record(1).throughput_series.window(25.0, 40.0)
    assert min(tail.values) > 0.0


def test_same_timestamp_events_execute_in_declaration_order():
    cloud = _chain_cloud(
        (
            NetworkEvent(time=8.0, kind="link_down", a="C1", b="C2"),
            NetworkEvent(time=8.0, kind="link_down", a="C2", b="C3"),
            NetworkEvent(time=8.0, kind="link_up", a="C1", b="C2"),
        )
    )
    cloud.run(until=12.0)
    applied = [(t, e.kind, e.pair) for t, e in cloud.dynamics.applied]
    assert applied == [
        (8.0, "link_down", ("C1", "C2")),
        (8.0, "link_down", ("C2", "C3")),
        (8.0, "link_up", ("C1", "C2")),
    ]
    # Net state after the tie: C1-C2 back up, C2-C3 still down.
    assert cloud.topology.links["C1->C2"].up
    assert not cloud.topology.links["C2->C3"].up


def test_failed_link_with_parked_epoch_timer_is_woken_first():
    """PR 5 parks a core's epoch timer when a link goes idle, until the
    link reports its next backlog.  A link armed for failure serves a
    real queue, which reports none, so its timer must never park — idle,
    down or recovered — and ``send`` must come back live."""
    spec = TopologySpec.chain(
        3,
        events=(
            NetworkEvent(time=20.0, kind="link_down", a="C2", b="C3"),
            NetworkEvent(time=28.0, kind="link_up", a="C2", b="C3"),
        ),
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=5)
    # Only an early-stopping flow crosses C2->C3: the link goes idle at
    # t=10 and its feeding core's epoch timer parks before the failure.
    builder.add_flow(
        FlowPathSpec(
            flow_id=1,
            weight=1.0,
            ingress_core="C1",
            egress_core="C3",
            schedule=((0.0, 10.0), (30.0, 40.0)),
        )
    )
    cloud = builder.build()
    machinery = cloud.core_router("C2").machinery_for("C2->C3")
    parked = []
    cloud.sim.every(1.0, lambda: parked.append(machinery.parked))
    result = cloud.run(until=40.0)
    assert not any(parked)
    link = cloud.topology.links["C2->C3"]
    assert link.up
    # send must be a live path, not the stale failure trap.
    assert getattr(link.send, "__func__", None) is not Link._send_down
    tail = result.record(1).throughput_series.window(34.0, 40.0)
    assert min(tail.values) > 0.0


def test_csfq_scheme_survives_failure_and_recovery():
    cloud = _chain_cloud(
        (
            NetworkEvent(time=8.0, kind="link_down", a="C1", b="C2"),
            NetworkEvent(time=16.0, kind="link_up", a="C1", b="C2"),
        ),
        scheme="csfq",
    )
    result = cloud.run(until=30.0)
    assert len(result.dynamics["events"]) == 2
    tail = result.record(1).throughput_series.window(22.0, 30.0)
    assert min(tail.values) > 0.0


# ---------------------------------------------------------------------------
# ECMP / flowlet multipath
# ---------------------------------------------------------------------------


def _leaf_spine_cloud(mode, *, flows=8, n_packets=8, seed=3):
    spec = TopologySpec.leaf_spine(
        leaves=2, spines=2, routing_mode=mode, ecmp_flowlet_n_packets=n_packets
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=seed)
    for fid in range(1, flows + 1):
        builder.add_flow(
            FlowPathSpec(flow_id=fid, weight=1.0, ingress_core="L1", egress_core="L2")
        )
    return builder.build()


def _uplink_counts(cloud, admitted):
    return {
        name: admitted[name]
        for name, link in cloud.topology.links.items()
        if link.src_name == "L1" and link.dst.name.startswith("S")
    }


def test_ecmp_mode_sprays_flows_across_spines(admitted):
    cloud = _leaf_spine_cloud("ecmp", flows=32)
    cloud.run(until=10.0)
    counts = _uplink_counts(cloud, admitted)
    assert set(counts) == {"L1->S1", "L1->S2"}
    assert all(count > 0 for count in counts.values())


def test_ecmp_pins_each_flow_to_one_path():
    """Without flowlets a flow's packets all take the same next hop."""
    cloud = _leaf_spine_cloud("ecmp", flows=4)
    router = cloud.topology.nodes["L1"]
    for fid in range(1, 5):
        hops = {
            router.route_for_packet(Packet.data(fid, "L1", "Eout%d" % fid, seq=s, now=0.0))
            for s in range(20)
        }
        assert len(hops) == 1


def test_flowlet_mode_moves_one_flow_across_paths():
    cloud = _leaf_spine_cloud("ecmp_flowlet", flows=1, n_packets=4)
    router = cloud.topology.nodes["L1"]
    hops = [
        router.route_for_packet(Packet.data(1, "L1", "Eout1", seq=s, now=0.0))
        for s in range(64)
    ]
    assert len(set(hops)) == 2
    # The hop changes only on flowlet boundaries: runs of 4.
    for start in range(0, 64, 4):
        assert len(set(hops[start : start + 4])) == 1


def test_markers_do_not_advance_flowlet_counter():
    cloud = _leaf_spine_cloud("ecmp_flowlet", flows=1, n_packets=4)
    router = cloud.topology.nodes["L1"]
    first = router.route_for_packet(Packet.data(1, "L1", "Eout1", seq=0, now=0.0))
    for _ in range(16):
        router.route_for_packet(Packet.marker(1, "L1", "Eout1", label=0.0, now=0.0))
    # 16 markers later the flow is still inside its first 4-packet flowlet.
    assert router.route_for_packet(Packet.data(1, "L1", "Eout1", seq=1, now=0.0)) is first


def test_ecmp_index_is_deterministic_and_in_range():
    for n in (1, 2, 3, 5):
        for flow in range(1, 50):
            idx = _ecmp_index(flow, 7, 0x12345, n)
            assert 0 <= idx < n
            assert idx == _ecmp_index(flow, 7, 0x12345, n)


def test_ecmp_run_is_seed_reproducible(admitted):
    def run_once():
        admitted.clear()
        cloud = _leaf_spine_cloud("ecmp_flowlet", flows=6, seed=11)
        result = cloud.run(until=10.0)
        return (
            tuple(
                (fid, rec.delivered) for fid, rec in sorted(result.flows.items())
            ),
            tuple(sorted(_uplink_counts(cloud, admitted).items())),
        )

    assert run_once() == run_once()
