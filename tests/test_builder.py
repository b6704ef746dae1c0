"""Unit tests for the spec-driven cloud builder (layer 2 of the
pipeline): strategies, validation, and the equivalence of three ways
to spell one chain."""

import math

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.experiments.builder import (
    Cloud,
    CloudBuilder,
    CoreliteStrategy,
    CsfqStrategy,
    FifoStrategy,
    SCHEME_STRATEGIES,
)
from repro.experiments.parallel import result_to_payload
from repro.experiments.scenario_dsl import run_scenario
from repro.experiments.topospec import FlowSpec, LinkSpec, TopologySpec
from repro.sim.node import Router
from repro.sim.packet import PacketKind

from .conftest import run_python
from .contract import CLOUDS


class TestOneCloudThreeSpellings:
    """A scenario's canned ``"topology"`` chain, the same chain as a custom
    link list and a direct ``CloudBuilder`` are one cloud."""

    @pytest.mark.parametrize("scheme", sorted(SCHEME_STRATEGIES))
    def test_network_topology_and_builder_agree(self, scheme):
        scenario = {
            "scheme": scheme,
            "seed": 3,
            "duration": 12.0,
            "flows": [
                {"id": 1, "weight": 1.0, "ingress": "C1", "egress": "C4"},
                {"id": 2, "weight": 2.0, "ingress": "C2", "egress": "C3"},
            ],
        }
        builder = CloudBuilder(TopologySpec.chain(4), scheme, seed=3)
        builder.add_flow(flow_id=1, weight=1.0, ingress_core="C1", egress_core="C4")
        builder.add_flow(flow_id=2, weight=2.0, ingress_core="C2", egress_core="C3")
        direct = result_to_payload(builder.run(until=12.0))
        links = [[f"C{i}", f"C{i + 1}", 500.0, 0.04] for i in range(1, 4)]
        for section in (
            {"topology": {"kind": "chain", "num_cores": 4}},
            {"topology": {"kind": "custom", "name": "chain-4", "links": links}},
        ):
            assert result_to_payload(run_scenario({**scenario, **section})) == direct


class TestStrategies:
    def test_scheme_registry(self):
        assert SCHEME_STRATEGIES == {
            "corelite": CoreliteStrategy,
            "csfq": CsfqStrategy,
            "fifo": FifoStrategy,
        }

    def test_strategy_binds_to_one_cloud_only(self):
        strategy = CoreliteStrategy()
        Cloud(TopologySpec.chain(2), strategy, seed=0)
        with pytest.raises(ConfigurationError, match="one cloud"):
            Cloud(TopologySpec.chain(2), strategy, seed=0)

    def test_wrong_config_type_rejected(self):
        from repro.csfq.config import CsfqConfig

        with pytest.raises(ConfigurationError, match="CoreliteConfig"):
            CoreliteStrategy(CsfqConfig())

    def test_csfq_rejects_min_rate_contracts(self):
        builder = CloudBuilder(TopologySpec.chain(2), scheme="csfq")
        builder.add_flow(flow_id=1, min_rate=50.0)
        with pytest.raises(ConfigurationError, match="min_rate"):
            builder.build()


class TestCloudValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="quantum"):
            CloudBuilder(TopologySpec.chain(2), scheme="quantum")

    @pytest.mark.parametrize("train_batch", [2.5, math.nan, True])
    def test_train_batch_must_be_a_positive_integer(self, train_batch):
        """``int()`` would run 2.5 as 2 and ``True`` as 1, and NaN would be
        a bare ValueError: each is a ConfigurationError naming the value."""
        builder = CloudBuilder(TopologySpec.chain(2), train_batch=train_batch)
        builder.add_flow(flow_id=1)
        with pytest.raises(ConfigurationError, match=rf"train_batch.*{train_batch!r}"):
            builder.build()

    def test_unknown_ingress_core_named_in_error(self):
        builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite")
        builder.add_flow(flow_id=1, ingress_core="C7", egress_core="C2")
        with pytest.raises(
            TopologyError, match=r"flow 1: ingress_core='C7'.*chain-2"
        ):
            builder.build()

    def test_unroutable_flow_named_at_finalize(self):
        # Two disconnected islands: A-B and X-Y.
        spec = TopologySpec(
            links=(LinkSpec("A", "B", 500.0, 0.02), LinkSpec("X", "Y", 500.0, 0.02)),
            name="islands",
        )
        builder = CloudBuilder(spec, scheme="corelite")
        builder.add_flow(flow_id=1, ingress_core="A", egress_core="Y")
        with pytest.raises(TopologyError, match=r"flow 1: no route.*'A'.*'Y'.*islands"):
            builder.build()

    def test_flows_after_finalize_rejected(self):
        builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite")
        builder.add_flow(flow_id=1)
        cloud = builder.build()
        with pytest.raises(ConfigurationError, match="finalize"):
            cloud.add_flow(FlowSpec(flow_id=2))

    def test_no_flows_rejected(self):
        with pytest.raises(ConfigurationError, match="no flows"):
            CloudBuilder(TopologySpec.chain(2), scheme="corelite").build()

    def test_core_router_rejects_non_core(self):
        builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite")
        builder.add_flow(flow_id=1)
        cloud = builder.build()
        assert cloud.core_router("C1") is cloud.topology.nodes["C1"]
        with pytest.raises(TopologyError, match="Ein1"):
            cloud.core_router("Ein1")


class TestReferenceRates:
    def test_single_bottleneck_weighted_split(self):
        builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite")
        builder.add_flow(flow_id=1, weight=1.0)
        builder.add_flow(flow_id=2, weight=3.0)
        cloud = builder.build()
        ref = cloud.reference_rates()
        assert ref[1] == pytest.approx(125.0)
        assert ref[2] == pytest.approx(375.0)

    def test_mesh_reference_matches_analytic_levels(self):
        from repro.experiments.scenarios import mesh_flows

        builder = CloudBuilder(TopologySpec.mesh(), scheme="corelite")
        builder.add_flows(mesh_flows())
        ref = builder.build().reference_rates()
        expected = {
            1: 250.0, 2: 250.0, 3: 125.0, 4: 125.0,
            5: 250.0, 6: 125.0, 7: 125.0,
            8: 250.0, 9: 250.0,
            10: 125.0, 11: 125.0, 12: 125.0,
        }
        for fid, rate in expected.items():
            assert ref[fid] == pytest.approx(rate), fid

    def test_parking_lot_reference(self):
        from repro.experiments.scenarios import parking_lot_flows

        builder = CloudBuilder(TopologySpec.parking_lot(3), scheme="corelite")
        builder.add_flows(parking_lot_flows())
        ref = builder.build().reference_rates()
        assert ref[1] == pytest.approx(250.0)
        for fid in range(2, 8):
            assert ref[fid] == pytest.approx(125.0)

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_every_data_packet_crosses_the_reference_path(self, name):
        """The reference scores each flow on ``flow_path_links``, the static
        shortest path; every data packet of the flow takes that path (a
        packet dropped on the way, a prefix of it), on every contract cloud
        whose paths do not move."""
        if name in _MOVING_PATHS:
            pytest.skip(_MOVING_PATHS[name])
        cloud, until = CLOUDS[name]()
        cloud.finalize()
        hosts = {h for spec in cloud.flows.values() for h in (spec.sender_host, spec.receiver_host)}
        hops = {}  # pid -> (flow id, [link name, ...])

        def tap(name):
            def record(packet, _now):
                if packet.kind is PacketKind.DATA:
                    hops.setdefault(packet.pid, (packet.flow_id, []))[1].append(name)

            return record

        for link in cloud.topology.links.values():
            if not {link.src_name, link.dst.name} & hosts:
                link.add_arrival_tap(tap(link.name))
        paths = {fid: list(cloud.flow_path_links(fid)) for fid in cloud.flows}
        cloud.run(until=until)
        assert hops
        for fid, crossed in hops.values():
            assert crossed == paths[fid][: len(crossed)], (fid, crossed)
        # Every flow that sent has a packet that crossed the whole path.
        sent = {fid for fid, _ in hops.values()}
        assert {fid for fid, crossed in hops.values() if crossed == paths[fid]} == sent


#: Contract clouds whose packets do not all take one static path.
_MOVING_PATHS = {
    "leaf-spine-flowlets": "flowlets split each flow over both spines, the reference scores "
    "one: at seed 0 this fabric's flows read 50.8-51.9 pkt/s per unit weight over 60-90 s "
    "against 29.4 (ROADMAP item 8); multipath waits for its row",
    "failover-mesh": "its A-B link fails at t = 40 and the flows reroute onto the detour",
}


class TestOneFlowPerEdge:
    """``Cloud.add_flow`` gives every flow its own ingress edge
    ``Ein<fid>``, so an edge's per-epoch sweep covers at most one flow
    (an ``aggregate:N`` bucket is one flow).  That is why the
    array-backed ("vectorized") edges were deleted: they measured no
    faster than the scalar edges and byte-identical to them.  A future
    shared-edge feature must revisit that measurement (docs/REPRODUCING
    §11) before re-adding array state."""

    @staticmethod
    def _builder(scheme):
        from repro.experiments.scenarios import parking_lot_flows

        builder = CloudBuilder(TopologySpec.parking_lot(3), scheme=scheme, seed=1)
        builder.add_flows(parking_lot_flows())
        builder.add_flow(
            flow_id=8, ingress_core="C1", egress_core="C4", aggregate=4
        )
        return builder

    @pytest.mark.parametrize("scheme", sorted(SCHEME_STRATEGIES))
    def test_every_edge_has_at_most_one_ingress_flow(self, scheme):
        clouds = [self._builder(scheme).build()]
        partitioned = self._builder(scheme)
        partitioned.partitions = 2
        partitioned.pdes_mode = "inline"
        session = partitioned.build_parallel().start()
        clouds += [worker.cloud for worker in session.workers]
        ingress_flows = 0
        for cloud in clouds:
            for edge in cloud.edges.values():
                assert len(edge.ingress_flow_ids()) <= 1, edge.name
                ingress_flows += len(edge.ingress_flow_ids())
        # Serial + the two partitions each attach all 8 flows exactly once.
        assert ingress_flows == 2 * 8


class TestRouteBuildScalesWithTransitRouters:
    """A cloud of single-uplink edge routers around a few cores must cost
    one shortest-path computation per core: every edge's table and every
    edge-rooted path query (routability check, flow paths, control
    delays) is read off its core's tree.  Pinned by counting the routine
    so a return to one Dijkstra per edge fails here, not in a benchmark.
    """

    FLOWS = 256

    @pytest.fixture
    def roots(self, monkeypatch):
        """``[(graph id, source), ...]`` of every tree computed."""
        from repro.sim import routing

        calls = []
        real = routing.shortest_path_tree

        def counting(adjacency, source):
            calls.append((id(adjacency), source))
            return real(adjacency, source)

        monkeypatch.setattr(routing, "shortest_path_tree", counting)
        return calls

    def _builder(self, **kwargs):
        spec = TopologySpec.chain(8, capacity_pps=4000.0)
        builder = CloudBuilder(spec, scheme="corelite", seed=0, **kwargs)
        for fid in range(1, self.FLOWS + 1):
            ingress = fid % 8
            builder.add_flow(
                flow_id=fid,
                ingress_core=f"C{ingress + 1}",
                egress_core=f"C{(ingress + 1 + fid % 7) % 8 + 1}",
            )
        return builder, set(spec.cores)

    def test_serial_build_runs_one_dijkstra_per_core(self, roots):
        builder, cores = self._builder()
        cloud = builder.build()
        assert len(cloud.edges) == 2 * self.FLOWS
        assert sorted(source for _graph, source in roots) == sorted(cores)
        cloud.reference_rates()  # flow paths: answered from the same trees
        assert len(roots) == len(cores)

    def test_inline_two_partition_build_runs_one_dijkstra_per_core(self, roots):
        builder, cores = self._builder(partitions=2, pdes_mode="inline")
        session = builder.build_parallel().start()
        try:
            # One whole-topology graph each: the coordinator and two workers.
            graphs = {graph for graph, _source in roots}
            assert len(graphs) == 3
            assert len(set(roots)) == len(roots)  # nothing computed twice
            assert {source for _graph, source in roots} == cores
            for worker in session.workers:
                rooted = {
                    source
                    for graph, source in roots
                    if graph == id(worker.shadow.adjacency)
                }
                assert rooted == cores
        finally:
            session.close()

    # -- the state-count pin: what the build leaves behind ----------------

    @staticmethod
    def _two_core_cloud(flows, **kwargs):
        spec = TopologySpec.chain(2, capacity_pps=4000.0)
        builder = CloudBuilder(spec, scheme="corelite", seed=0, **kwargs)
        for fid in range(1, flows + 1):
            ingress, egress = ("C1", "C2") if fid % 2 else ("C2", "C1")
            builder.add_flow(flow_id=fid, ingress_core=ingress, egress_core=egress)
        return builder, set(spec.cores)

    @staticmethod
    def _assert_only_cores_hold_tables(topologies, cores, destinations):
        """Forwarding state is cores x destinations, exactly; an edge holds
        its uplink and its core's reach set — the same object as every
        other edge of that core — and no entries of its own."""
        assert sum(t.route_entries() for t in topologies) == len(cores) * destinations
        edges = 0
        for topology in topologies:
            reach_behind = {}
            for name, node in topology.nodes.items():
                if not isinstance(node, Router):
                    continue
                if name in cores:
                    assert len(node._routes) == destinations, name
                    assert node._uplink is None and not node._reach, name
                    assert len(set(map(id, node._routes.values()))) > 1, name
                    continue
                edges += 1
                assert node._routes == {}, name
                core = node._uplink.dst.name
                assert core in cores, name
                assert len(node._reach) == destinations, name
                assert reach_behind.setdefault(core, node._reach) is node._reach, name
        assert edges == destinations

    @pytest.mark.parametrize("flows", [64, 256, 1024])
    def test_serial_build_stores_cores_times_destinations_entries(self, flows):
        builder, cores = self._two_core_cloud(flows)
        cloud = builder.build()
        assert cloud.topology.route_entries() == 2 * (2 * flows)
        self._assert_only_cores_hold_tables([cloud.topology], cores, 2 * flows)

    @pytest.mark.parametrize("flows", [64, 256, 1024])
    def test_inline_two_partition_build_stores_the_same_entries(self, flows):
        builder, cores = self._two_core_cloud(flows, partitions=2, pdes_mode="inline")
        session = builder.build_parallel().start()
        try:
            topologies = [worker.cloud.topology for worker in session.workers]
            self._assert_only_cores_hold_tables(topologies, cores, 2 * flows)
        finally:
            session.close()


def test_4096_flow_scalar_build_stays_under_400_mb_and_10_s():
    """Forwarding state must not grow with the square of the edge count:
    the 4,096-flow scalar cloud (2 cores, 8,194 routers) held 67 M entries /
    3.37 GB / 38.5 s before the uplink form and 16,384 / 166 MB / ~1 s
    after.  In a subprocess so ``ru_maxrss`` is the build's own; the memory
    bound is tight, the time bound loose for shared runners."""
    script = (
        "import resource, time\n"
        "from tests.conftest import flow_scaling_cloud\n"
        "started = time.perf_counter()\n"
        "cloud = flow_scaling_cloud('corelite', 4096)\n"
        "seconds = time.perf_counter() - started\n"
        "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "entries = cloud.topology.route_entries()\n"
        "print(f'build={seconds:.2f}s ru_maxrss={rss_mb:.0f}MB route_entries={entries}')\n"
        "assert entries == 2 * 8192, entries\n"
        "assert rss_mb <= 400, f'ru_maxrss {rss_mb:.0f} MB > 400 MB'\n"
        "assert seconds <= 10, f'build took {seconds:.1f} s > 10 s'\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestPacketConservation:
    """``total_drops`` is what the network lost; a scheme's own core policy
    (CSFQ's probabilistic filter) drops ahead of the buffer and is reported
    beside it.  Together they close the books."""

    @pytest.mark.parametrize("scheme", ["corelite", "csfq"])
    def test_every_emitted_packet_is_accounted_for(self, scheme):
        from repro.experiments.scenarios import WEIGHTS_41, topology1_flows

        # corebench's paper_chain4 / csfq_chain4 cloud, a shorter horizon:
        # the sources stop at 25 s and the network drains before 30 s.
        stop = {fid: ((0.0, 25.0),) for fid in WEIGHTS_41}
        builder = CloudBuilder(TopologySpec.chain(4), scheme=scheme, seed=0)
        builder.add_flows(topology1_flows(WEIGHTS_41, stop))
        cloud = builder.build()
        result = cloud.run(until=30.0)

        filtered = 0
        if scheme == "csfq":
            cores = [cloud.core_router(name) for name in cloud.core_names]
            filtered = sum(
                core.state_for(name).prob_drops for core in cores for name in core.enabled_links()
            )
            assert filtered > 10 * result.total_drops > 0
        assert result.policy_drops == filtered

        emitted = sum(
            state.seq for edge in cloud.edges.values() for state in edge._ingress_flows
        )
        assert emitted == result.total_delivered() + result.total_drops + result.policy_drops

    @pytest.mark.parametrize("scheme", ["corelite", "csfq"])
    def test_reordering_is_not_loss(self, scheme):
        """Eight-packet flowlets over two spines reorder every flow; the
        egress books as lost only what a buffer or a core's policy dropped
        (a Corelite egress read 83,478 losses here with nothing dropped)."""
        spec = TopologySpec.leaf_spine(
            2, 2, routing_mode="ecmp_flowlet", ecmp_flowlet_n_packets=8
        )
        builder = CloudBuilder(spec, scheme=scheme, seed=3)
        for flow_id in range(1, 9):
            builder.add_flow(flow_id=flow_id, ingress_core="L1", egress_core="L2")
        result = builder.run(until=30.0)
        assert result.total_delivered() > 5000
        assert result.total_losses() == result.total_drops + result.policy_drops
