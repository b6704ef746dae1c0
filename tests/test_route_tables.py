"""Differential tests for the route-table builder.

:class:`repro.sim.routing.PathCache` roots a shortest-path tree only at
nodes with two or more live links and reads every single-link node's
table off its neighbour's tree.  The algorithm it replaced — one
Dijkstra per router, one ``reconstruct_path`` walk per (router,
destination), one distance map per node for ECMP — is kept here as the
oracle, and the installed forwarding state must equal it entry for
entry: same destinations, same link objects, ECMP candidates in the same
order.

Only multi-link routers store those entries; a single-uplink router
holds ``(uplink, reach)`` and answers through ``Router.route_for``.  The
oracle stays fully materialised, and the *effective* next hop must equal
it for every (router, destination) pair — ``None`` where the oracle has
no route — so the representation can change again without these
assertions changing meaning.
"""

from __future__ import annotations

import pytest

from repro.core.config import CoreliteConfig
from repro.core.router import CoreliteCoreRouter
from repro.csfq.config import CsfqConfig
from repro.csfq.router import CsfqCoreRouter
from repro.errors import RoutingError, TopologyError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngRegistry
from repro.sim.routing import equal_cost_next_hops, reconstruct_path, shortest_paths
from repro.sim.topology import ROUTING_MODES, Topology

from .conftest import CollectorNode

# -- the old algorithm, kept as the oracle --------------------------------------


def oracle_tables(topology: Topology):
    """``{router: (routes, ecmp)}`` by per-source Dijkstra + path walks,
    with ECMP candidates tested against a distance map for *every* node.
    Fully materialised: one link name per (router, reachable destination)."""
    adjacency = topology._adjacency()
    trees = {name: shortest_paths(adjacency, name) for name in topology.nodes}
    dist_maps = {name: dist for name, (dist, _prev) in trees.items()}
    expected = {}
    for src, node in topology.nodes.items():
        if not isinstance(node, Router):
            continue
        prev = trees[src][1]
        routes = {}
        for dst in topology._destinations:
            if dst != src and dst in prev:
                routes[dst] = reconstruct_path(prev, src, dst)[0]
        ecmp = {}
        if topology.routing_mode != "static":
            for dst in routes:
                hops = equal_cost_next_hops(adjacency, src, dst, dist_maps)
                if len(hops) >= 2:
                    ecmp[dst] = tuple(name for _n, name in hops)
        expected[src] = (routes, ecmp)
    return expected, trees


def assert_effective_next_hops(router, routes, ecmp, destinations, links) -> None:
    """``router`` forwards exactly as the materialised ``routes`` would:
    same next hop for every destination, ``None`` where there is none."""
    src = router.name
    wanted = {dst: links[name] for dst, name in routes.items()}
    installed = router.routes()
    assert list(installed) == sorted(wanted), src
    assert all(link is wanted[dst] for dst, link in installed.items()), src
    for dst in destinations:
        assert router.route_for(dst) is wanted.get(dst), (src, dst)
        if dst not in ecmp:
            probe = Packet(PacketKind.DATA, flow_id=1, src=src, dst=dst)
            assert router.route_for_packet(probe) is wanted.get(dst), (src, dst)
    assert src not in wanted and router.route_for(src) is None, src
    assert [
        (dst, tuple(link.name for link in candidates))
        for dst, candidates in router._ecmp_routes.items()
    ] == list(ecmp.items()), src
    assert router.multipath == bool(ecmp), src


def assert_matches_oracle(topology: Topology) -> None:
    expected, trees = oracle_tables(topology)
    adjacency = topology._adjacency()
    for src, (routes, ecmp) in expected.items():
        router = topology.nodes[src]
        assert_effective_next_hops(
            router, routes, ecmp, topology._destinations, topology.links
        )
        if len(adjacency[src]) == 1:
            assert router._routes == {}, src  # one uplink, never a table
        prev = trees[src][1]
        for dst in topology._destinations:
            try:
                names = reconstruct_path(prev, src, dst)
            except RoutingError:
                with pytest.raises(RoutingError):
                    topology.path_links(src, dst)
                continue
            links = [topology.links[name] for name in names]
            assert topology.path_links(src, dst) == links, (src, dst)
            assert topology.path_delay(src, dst) == sum(
                link.prop_delay for link in links
            ), (src, dst)


# -- clouds ---------------------------------------------------------------------

#: name -> (spec factory, the duplex link the schedule fails and recovers).
#: The chain failures cut the graph in two, so the lenient rebuild has
#: unreachable destinations to leave out.
SPECS = {
    "chain": (lambda **kw: TopologySpec.chain(4, **kw), ("C2", "C3")),
    "parking_lot": (lambda **kw: TopologySpec.parking_lot(3, **kw), ("C1", "C2")),
    "star": (
        lambda **kw: TopologySpec(
            links=tuple(LinkSpec("H", f"S{i}", 500.0, 0.02) for i in (1, 2, 3)),
            name="star-3",
            **kw,
        ),
        ("H", "S1"),
    ),
    "mesh": (lambda **kw: TopologySpec.mesh(**kw), ("A", "B")),
    "leaf_spine": (lambda **kw: TopologySpec.leaf_spine(3, 2, **kw), ("L1", "S1")),
    "fat_tree": (lambda **kw: TopologySpec.fat_tree(4, **kw), ("P1E1", "P1A1")),
}


def spread_flows(spec: TopologySpec, tcp: bool = True):
    """Two flows out of every core, so each core grows edge routers; with
    ``tcp`` the first is a TCP flow, whose hosts are single-link routers
    *and* destinations hanging off edges that then have two links."""
    cores = spec.core_names
    flows = []
    for index, core in enumerate(cores):
        for step in (1, len(cores) // 2):
            flows.append(
                FlowPathSpec(
                    len(flows) + 1,
                    weight=1.0,
                    ingress_core=core,
                    egress_core=cores[(index + step) % len(cores)],
                    transport="tcp" if tcp and not flows else "shaped",
                )
            )
    return flows


@pytest.mark.parametrize("mode", ROUTING_MODES)
@pytest.mark.parametrize("shape", sorted(SPECS))
def test_tables_equal_the_all_pairs_oracle_through_failure_and_recovery(shape, mode):
    factory, (a, b) = SPECS[shape]
    spec = factory(
        routing_mode=mode,
        events=(
            NetworkEvent(time=1.0, kind="link_down", a=a, b=b),
            NetworkEvent(time=2.0, kind="link_up", a=a, b=b),
        ),
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=1)
    builder.add_flows(spread_flows(spec))
    cloud = builder.build()
    topology = cloud.topology
    assert_matches_oracle(topology)
    before = {
        name: node.routes()
        for name, node in topology.nodes.items()
        if isinstance(node, Router)
    }

    cloud.dynamics.schedule(3.0)
    cloud.sim.run(until=1.5)
    assert len(cloud.dynamics.applied) == 1
    assert not topology.links[f"{a}->{b}"].up
    assert_matches_oracle(topology)

    cloud.sim.run(until=3.0)
    assert len(cloud.dynamics.applied) == 2
    assert_matches_oracle(topology)
    after = {
        name: node.routes()
        for name, node in topology.nodes.items()
        if isinstance(node, Router)
    }
    assert after == before


def test_tables_equal_the_oracle_with_tcp_hosts():
    """Hosts are single-link routers *and* destinations; the edge they
    hang off has two links, so it roots a tree of its own."""
    spec = TopologySpec.mesh(routing_mode="ecmp")
    builder = CloudBuilder(spec, scheme="corelite", seed=1)
    builder.add_flow(FlowPathSpec(1, weight=1.0, ingress_core="A", egress_core="D"))
    builder.add_flow(
        FlowPathSpec(2, weight=1.0, ingress_core="B", egress_core="C", transport="tcp")
    )
    cloud = builder.build()
    topology = cloud.topology
    flow = cloud.flows[2]
    assert flow.sender_host in topology._destinations
    assert len(topology._adjacency()[flow.ingress_edge]) == 2
    assert_matches_oracle(topology)


# -- single-link and zero-link routers -------------------------------------------


def hub_and_leaves():
    """Two hubs ``H1 - H2`` with duplex leaves ``A`` (on H1) and ``B`` (on H2)."""
    topology = Topology(Simulator())
    for name in ("H1", "H2", "A", "B"):
        topology.add_node(Router(name))
    topology.add_duplex_link("H1", "H2", 500.0, 0.01)
    topology.add_duplex_link("A", "H1", 500.0, 0.02)
    topology.add_duplex_link("B", "H2", 500.0, 0.02)
    return topology


def test_single_link_router_routes_everything_over_its_uplink():
    topology = hub_and_leaves()
    topology.build_routes(destinations=["A", "B"])
    uplink = topology.links["A->H1"]
    assert topology.nodes["A"].routes() == {"B": uplink}
    assert [link.name for link in topology.path_links("A", "B")] == [
        "A->H1",
        "H1->H2",
        "H2->B",
    ]
    assert topology.path_delay("A", "B") == 0.02 + 0.01 + 0.02
    assert [link.name for link in topology.path_links("A", "H1")] == ["A->H1"]
    assert_matches_oracle(topology)


def test_zero_link_router_is_an_error_on_the_strict_build():
    topology = hub_and_leaves()
    topology.add_node(Router("Z"))
    topology.add_link("H1", "Z", 500.0, 0.01)  # reachable, but no way out
    with pytest.raises(RoutingError, match="no path from 'Z' to 'A'"):
        topology.build_routes(destinations=["A", "B"])
    assert all(not node.routes() for node in topology.nodes.values())
    # It is fine as long as nothing has to be reached from it.
    topology.build_routes(destinations=["Z"])
    assert topology.nodes["Z"].routes() == {}
    assert topology.nodes["A"].routes() == {"Z": topology.links["A->H1"]}


def test_unknown_destination_raises_before_any_table_is_installed():
    topology = hub_and_leaves()
    with pytest.raises(TopologyError, match="unknown destination 'nowhere'"):
        topology.build_routes(destinations=["A", "nowhere"])
    assert all(not node.routes() for node in topology.nodes.values())


def test_edge_whose_only_link_is_down_gets_an_empty_table_and_drops():
    topology = hub_and_leaves()
    topology.build_routes(destinations=["A", "B"])
    for node in topology.nodes.values():
        node.drop_unrouted = True
    for name in ("A->H1", "H1->A"):
        topology.links[name].enable_dynamics()
        topology.links[name].fail()
    topology.rebuild_routes()
    edge = topology.nodes["A"]
    assert edge.routes() == {}
    assert topology.nodes["H1"].routes() == {"B": topology.links["H1->H2"]}
    assert topology.nodes["B"].routes() == {}  # its only destination is gone
    with pytest.raises(RoutingError, match="no path from 'A' to 'B'"):
        topology.path_links("A", "B")
    assert_matches_oracle(topology)
    packet = Packet(PacketKind.DATA, flow_id=1, src="A", dst="B")
    assert edge.forward(packet) is False
    assert edge.unrouted_drops == 1

    for name in ("A->H1", "H1->A"):
        topology.links[name].recover()
    topology.rebuild_routes()
    assert edge.routes() == {"B": topology.links["A->H1"]}
    assert_matches_oracle(topology)


def test_one_way_single_link_neighbour_is_still_a_transit_candidate():
    """``S -> V -> T`` with ``V`` owning one link that does *not* lead
    back: the dead-end shortcut must not apply, ``V`` ties with ``U``."""
    topology = Topology(Simulator())
    for name in ("S", "U", "V", "T"):
        topology.add_node(Router(name))
    topology.add_duplex_link("S", "U", 500.0, 0.01)
    topology.add_duplex_link("U", "T", 500.0, 0.01)
    topology.add_link("S", "V", 500.0, 0.01)
    topology.add_link("V", "T", 500.0, 0.01)
    topology.set_routing("ecmp")
    topology.build_routes(destinations=["T", "S"])
    assert [link.name for link in topology.nodes["S"]._ecmp_routes["T"]] == [
        "S->U",
        "S->V",
    ]
    onward = topology.links["V->T"]
    assert topology.nodes["V"].routes() == {"S": onward, "T": onward}
    assert_matches_oracle(topology)


def test_disconnected_spec_still_names_the_flow():
    spec = TopologySpec(
        links=(LinkSpec("A", "B", 500.0, 0.02), LinkSpec("X", "Y", 500.0, 0.02)),
        name="islands",
    )
    for partitions in (1, 2):
        builder = CloudBuilder(spec, scheme="corelite", partitions=partitions)
        builder.add_flow(FlowPathSpec(1, weight=1.0, ingress_core="A", egress_core="Y"))
        build = builder.build if partitions == 1 else builder.build_parallel
        with pytest.raises(TopologyError, match=r"flow 1: no route.*'A'.*'Y'.*islands"):
            build()


# -- partition workers against the same oracle -----------------------------------


@pytest.mark.parametrize("mode", ROUTING_MODES)
@pytest.mark.parametrize("shape", sorted(SPECS))
def test_inline_two_partition_workers_forward_as_the_serial_oracle_says(shape, mode):
    """Every worker builds over the global shadow graph with the serial
    builder; each local router's effective next hops must be the serial
    oracle's, resolved to that worker's own link objects."""
    factory, _cut = SPECS[shape]
    spec = factory(routing_mode=mode)

    def builder(**kwargs):
        b = CloudBuilder(spec, scheme="corelite", seed=1, **kwargs)
        b.add_flows(spread_flows(spec, tcp=False))
        return b

    serial = builder().build().topology
    expected, _trees = oracle_tables(serial)
    session = builder(partitions=2, pdes_mode="inline").build_parallel().start()
    try:
        seen = []
        for worker in session.workers:
            local = worker.cloud.topology
            for name, node in local.nodes.items():
                routes, ecmp = expected[name]
                assert_effective_next_hops(
                    node, routes, ecmp, serial._destinations, local.links
                )
                seen.append(name)
        assert sorted(seen) == sorted(expected)  # each router in one partition
    finally:
        session.close()


# -- the uplink form, case by case ------------------------------------------------


def test_self_addressed_packet_still_raises_on_an_uplink_router():
    topology = hub_and_leaves()
    topology.build_routes(destinations=["A", "B"])
    edge = topology.nodes["A"]
    assert edge._routes == {} and "A" in edge._reach  # reach is H1's, A included
    assert edge.route_for("A") is None
    with pytest.raises(RoutingError, match="addressed to itself"):
        edge.forward(Packet(PacketKind.DATA, flow_id=1, src="A", dst="A"))
    with pytest.raises(RoutingError, match="A: no route toward 'nowhere'"):
        edge.forward(Packet(PacketKind.DATA, flow_id=1, src="A", dst="nowhere"))


def test_full_table_install_clears_the_uplink():
    topology = hub_and_leaves()
    topology.build_routes(destinations=["A", "B"])
    edge = topology.nodes["A"]
    assert edge.route_for("B") is topology.links["A->H1"]
    edge.install_routes({})
    assert edge.routes() == {} and edge.route_for("B") is None
    edge.install_multipath_routes({"B": topology.links["A->H1"]}, {})
    assert edge.routes() == {"B": topology.links["A->H1"]}
    assert edge._uplink is None and not edge._reach


def test_strict_build_on_islands_names_the_same_pair_from_an_uplink_router():
    """The strict check of a single-link source is computed from its
    reach set; the error must read as it did against a full table."""
    topology = Topology(Simulator())
    for name in ("A", "H1", "H2", "B", "X", "Y"):  # a leaf is checked first
        topology.add_node(Router(name))
    topology.add_duplex_link("H1", "H2", 500.0, 0.01)
    topology.add_duplex_link("A", "H1", 500.0, 0.02)
    topology.add_duplex_link("B", "H2", 500.0, 0.02)
    topology.add_duplex_link("X", "Y", 500.0, 0.02)
    with pytest.raises(RoutingError, match="^no path from 'A' to 'Y'$"):
        topology.build_routes(destinations=["B", "A", "Y"])
    assert all(not node.routes() for node in topology.nodes.values())
    spec = TopologySpec(
        links=(LinkSpec("A", "B", 500.0, 0.02), LinkSpec("X", "Y", 500.0, 0.02)),
        name="islands",
    )
    builder = CloudBuilder(spec, scheme="corelite")
    builder.add_flow(FlowPathSpec(1, weight=1.0, ingress_core="A", egress_core="B"))
    builder.add_flow(FlowPathSpec(2, weight=1.0, ingress_core="X", egress_core="Y"))
    with pytest.raises(
        TopologyError, match="'islands' is disconnected: no path from 'A' to 'Ein2'"
    ):
        builder.build()


def test_one_way_uplink_whose_neighbour_cannot_answer_passes_the_strict_build():
    """``P -> H1`` only: nothing reaches ``P``, so it is not in its own
    reach set — and must not be counted as missing from it."""
    topology = hub_and_leaves()
    topology.add_node(Router("P"))
    topology.add_link("P", "H1", 500.0, 0.01)
    with pytest.raises(RoutingError, match="no path from 'H1' to 'P'"):
        topology.build_routes(destinations=["A", "B", "P"])
    topology.build_routes(destinations=["A", "B"])
    probe = topology.nodes["P"]
    assert probe._reach is topology.nodes["A"]._reach  # both behind H1
    assert probe.routes() == dict.fromkeys(["A", "B"], topology.links["P->H1"])
    assert_matches_oracle(topology)


# -- a core down to one out-link must not go blind ---------------------------------


def _stub_core_topology(make_core):
    """``C`` forwards to sink ``Eout`` over the slow ``C->D`` link and has
    one spare duplex link ``C<->X``; with the spare down, ``C->D`` is its
    only live out-link and it holds an uplink, not a table."""
    sim = Simulator()
    topology = Topology(sim)
    core = make_core(sim)
    for node in (core, Router("D"), Router("X"), CollectorNode("Eout", sim)):
        topology.add_node(node)
    topology.add_link("C", "D", 500.0, 0.0)
    topology.add_link("D", "Eout", 5000.0, 0.0)
    topology.add_duplex_link("C", "X", 500.0, 0.0)
    topology.add_link("X", "D", 500.0, 0.0)  # X routes with the spare down too
    spare = [topology.links["C->X"], topology.links["X->C"]]
    for link in spare:
        link.enable_dynamics()
        link.fail()
    topology.build_routes(destinations=["Eout"])
    return topology, core, spare


def _cycle_the_spare(topology, core, spare, pump, count):
    """Stub at build -> recover -> fail again; ``count()`` must rise in
    every phase, and the core must be in the form the phase implies."""
    out = topology.links["C->D"]
    for phase, single in (("built", True), ("recovered", False), ("failed", True)):
        if phase == "recovered":
            for link in spare:
                link.recover()
            topology.rebuild_routes()
        elif phase == "failed":
            for link in spare:
                link.fail()
            topology.rebuild_routes()
        assert (core._uplink is out and not core._routes) == single, phase
        assert core.route_for("Eout") is out, phase
        before = count()
        start = topology.sim.now
        for k in range(8):
            topology.sim.schedule_at(start + k * 0.05, pump)
        topology.sim.run(until=start + 1.2)
        assert count() > before, f"{phase}: core went blind"


def test_corelite_core_with_one_live_out_link_still_emits_feedback():
    feedback = []
    topology, core, spare = _stub_core_topology(
        lambda sim: CoreliteCoreRouter(
            "C", sim, CoreliteConfig(), RngRegistry(0), send_feedback=feedback.append
        )
    )
    machinery = core.enable_on_link(topology.links["C->D"])
    sim = topology.sim

    def pump():
        for i in range(30):
            core.receive(Packet.data(1, "Ein1", "Eout", i, sim.now), link=None)
        for _ in range(10):
            core.receive(Packet.marker(1, "Ein1", "Eout", label=10.0, now=sim.now), link=None)

    _cycle_the_spare(topology, core, spare, pump, lambda: len(feedback))
    assert machinery.selector.markers_seen == 3 * 8 * 10
    assert {fb.feedback_from for fb in feedback} == {"C->D"}


def test_csfq_core_with_one_live_out_link_still_drops_probabilistically(admitted):
    topology, core, spare = _stub_core_topology(
        lambda sim: CsfqCoreRouter("C", sim, CsfqConfig(), RngRegistry(0))
    )
    state = core.enable_on_link(topology.links["C->D"])
    sim = topology.sim
    seq = iter(range(10**6))

    def pump():
        for _ in range(40):
            core.receive(
                Packet.data(1, "Ein1", "Eout", next(seq), sim.now, label=2000.0),
                link=None,
            )

    _cycle_the_spare(topology, core, spare, pump, lambda: state.prob_drops)
    # Every pumped packet was dropped by the coin or the buffer, or admitted.
    offered = 3 * 8 * 40
    assert admitted["C->D"] == offered - state.prob_drops - state.overflow_drops > 0
