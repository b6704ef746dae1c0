"""Differential tests for the route-table builder.

:class:`repro.sim.routing.PathCache` roots a shortest-path tree only at
nodes with two or more live links and reads every single-link node's
table off its neighbour's tree.  The algorithm it replaced — one
Dijkstra per router, one ``reconstruct_path`` walk per (router,
destination), one distance map per node for ECMP — is kept here as the
oracle, and the installed tables must equal it entry for entry: same
keys, same key order, same link objects.
"""

from __future__ import annotations

import pytest

from repro.errors import RoutingError, TopologyError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind
from repro.sim.routing import equal_cost_next_hops, reconstruct_path, shortest_paths
from repro.sim.topology import ROUTING_MODES, Topology

# -- the old algorithm, kept as the oracle --------------------------------------


def oracle_tables(topology: Topology):
    """``{router: (routes, ecmp)}`` by per-source Dijkstra + path walks,
    with ECMP candidates tested against a distance map for *every* node."""
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
                routes[dst] = topology.links[reconstruct_path(prev, src, dst)[0]]
        ecmp = {}
        if topology.routing_mode != "static":
            for dst in routes:
                hops = equal_cost_next_hops(adjacency, src, dst, dist_maps)
                if len(hops) >= 2:
                    ecmp[dst] = tuple(topology.links[name] for _n, name in hops)
        expected[src] = (routes, ecmp)
    return expected, trees


def assert_matches_oracle(topology: Topology) -> None:
    expected, trees = oracle_tables(topology)
    for src, (routes, ecmp) in expected.items():
        router = topology.nodes[src]
        installed = list(router._routes.items())
        assert [dst for dst, _ in installed] == list(routes), src
        assert all(link is routes[dst] for dst, link in installed), src
        assert list(router._ecmp_routes.items()) == list(ecmp.items()), src
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
    "star": (lambda **kw: TopologySpec.star(3, **kw), ("H", "S1")),
    "mesh": (lambda **kw: TopologySpec.mesh(**kw), ("A", "B")),
    "leaf_spine": (lambda **kw: TopologySpec.leaf_spine(3, 2, **kw), ("L1", "S1")),
    "fat_tree": (lambda **kw: TopologySpec.fat_tree(4, **kw), ("P1E1", "P1A1")),
}


def spread_flows(spec: TopologySpec):
    """Two flows out of every core, so each core grows edge routers."""
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
        name: list(node._routes.items())
        for name, node in topology.nodes.items()
        if isinstance(node, Router)
    }

    cloud.dynamics.schedule(3.0)
    cloud.sim.run(until=1.5)
    assert cloud.dynamics.reroutes == 1
    assert not topology.links[f"{a}->{b}"].up
    assert_matches_oracle(topology)

    cloud.sim.run(until=3.0)
    assert cloud.dynamics.reroutes == 2
    assert_matches_oracle(topology)
    after = {
        name: list(node._routes.items())
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
    assert topology.nodes["A"]._routes == {"B": uplink}
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
    assert all(not node._routes for node in topology.nodes.values())
    # It is fine as long as nothing has to be reached from it.
    topology.build_routes(destinations=["Z"])
    assert topology.nodes["Z"]._routes == {}
    assert topology.nodes["A"]._routes == {"Z": topology.links["A->H1"]}


def test_unknown_destination_raises_before_any_table_is_installed():
    topology = hub_and_leaves()
    with pytest.raises(TopologyError, match="unknown destination 'nowhere'"):
        topology.build_routes(destinations=["A", "nowhere"])
    assert all(not node._routes for node in topology.nodes.values())


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
    assert edge._routes == {}
    assert topology.nodes["H1"]._routes == {"B": topology.links["H1->H2"]}
    assert topology.nodes["B"]._routes == {}  # its only destination is gone
    with pytest.raises(RoutingError, match="no path from 'A' to 'B'"):
        topology.path_links("A", "B")
    assert_matches_oracle(topology)
    packet = Packet(PacketKind.DATA, flow_id=1, src="A", dst="B")
    assert edge.forward(packet) is False
    assert edge.unrouted_drops == 1

    for name in ("A->H1", "H1->A"):
        topology.links[name].recover()
    topology.rebuild_routes()
    assert edge._routes == {"B": topology.links["A->H1"]}
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
    assert topology.nodes["V"]._routes == {"T": onward, "S": onward}
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
