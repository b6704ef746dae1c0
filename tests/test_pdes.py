"""Conservative-PDES tests: partitioner, windowed engine, equivalence.

The core claim of :mod:`repro.experiments.pdes` is that a partitioned
run is not an approximation: with every RNG stream name-derived, routing
and control delays resolved over the global shadow graph, and boundary
links reproducing the queued-path transmission timestamps, a two-way
partitioned chain must match the serial run *exactly* — same delivered
counts, same drops, bit-equal rate/throughput series.  Mesh and
parking-lot workloads at four partitions are additionally pinned
statistically (weighted Jain and 2% per-flow mean rates against serial),
the tolerance the scheme-level acceptance uses.
"""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError, TopologyError
from repro.experiments.builder import CloudBuilder
from repro.experiments.partition import (
    PartitionPlan,
    ShadowGraph,
    auto_partition,
    channel_delay_matrix,
    lookahead_closure,
)
from repro.experiments.pdes import ParallelCloud, _OutBatch
from repro.experiments.scenarios import mesh_flows, parking_lot_flows
from repro.experiments.topospec import FlowPathSpec, SourceSpec, TopologySpec
from repro.sim.engine import Simulator
from repro.sim.link import BoundaryLink
from repro.sim.packet import PacketTrain
from repro.units import ms_to_s

from .conftest import pdes_scaling_builder


def chain_flows():
    return [
        FlowPathSpec(1, weight=2.0, ingress_core="C1", egress_core="C4"),
        FlowPathSpec(2, weight=1.0, ingress_core="C1", egress_core="C2"),
        FlowPathSpec(3, weight=3.0, ingress_core="C3", egress_core="C4"),
        FlowPathSpec(4, weight=1.0, ingress_core="C2", egress_core="C3"),
        FlowPathSpec(5, weight=1.0, ingress_core="C4", egress_core="C1"),
    ]


def rich_flows():
    """Sources, schedules, contracts and an aggregate bucket in one
    scenario — every generator path the scheduler knows."""
    return [
        FlowPathSpec(
            1,
            weight=2.0,
            ingress_core="C1",
            egress_core="C4",
            source=SourceSpec(kind="poisson", mean_rate=120.0),
        ),
        FlowPathSpec(2, weight=1.0, ingress_core="C1", egress_core="C4", min_rate=20.0),
        FlowPathSpec(
            3,
            weight=1.0,
            ingress_core="C2",
            egress_core="C4",
            aggregate=3,
        ),
        FlowPathSpec(
            4,
            weight=1.0,
            ingress_core="C3",
            egress_core="C1",
            source=SourceSpec(kind="onoff", peak_rate=80.0, mean_on=1.0, mean_off=1.0),
        ),
        FlowPathSpec(
            5, weight=1.0, ingress_core="C2", egress_core="C3", schedule=((5.0, 20.0),)
        ),
    ]


def run_pair(
    spec,
    flows,
    scheme,
    until,
    *,
    partitions=2,
    mode="inline",
    plan=None,
    record_queues=False,
    **kw,
):
    def builder():
        b = CloudBuilder(spec, scheme=scheme, seed=7, **kw)
        b.add_flows(flows)
        return b

    serial = builder().run(until=until, record_queues=record_queues)
    b = builder()
    b.partitions = partitions
    b.partition_plan = plan
    b.pdes_mode = mode
    parallel = b.run(until=until, record_queues=record_queues)
    return serial, parallel


def assert_identical(serial, parallel):
    """Field-for-field equality of two RunResults (exact, not statistical)."""
    assert set(serial.flows) == set(parallel.flows)
    for fid, a in serial.flows.items():
        b = parallel.flows[fid]
        assert a.delivered == b.delivered, fid
        assert a.losses == b.losses, fid
        assert a.weight == b.weight
        assert a.path_links == b.path_links
        assert a.delay == b.delay
        assert list(a.rate_series) == list(b.rate_series), fid
        assert list(a.throughput_series) == list(b.throughput_series), fid
        assert list(a.cumulative_series) == list(b.cumulative_series), fid
    assert serial.total_drops == parallel.total_drops
    assert serial.capacities == parallel.capacities
    assert serial.scheme == parallel.scheme
    assert serial.seed == parallel.seed


# -- partitioner ---------------------------------------------------------------


class TestPartitionPlan:
    def test_auto_partition_chain_splits_in_the_middle(self):
        spec = TopologySpec.chain(4)
        plan = auto_partition(spec, 2)
        assert plan.cores_of(0) == ("C1", "C2")
        assert plan.cores_of(1) == ("C3", "C4")
        assert plan.window(spec) == pytest.approx(ms_to_s(40.0))

    def test_auto_partition_cuts_the_longest_delay_links(self):
        # Two tight pairs joined by a slow link: the min-cut over delay
        # must leave the slow link crossing, maximizing the window.
        spec = TopologySpec.mesh()
        plan = auto_partition(spec, 2)
        assert {len(plan.cores_of(0)), len(plan.cores_of(1))} == {2}
        cut = plan.cut_links(spec)
        assert cut
        assert plan.window(spec) == min(link.prop_delay for link in cut)

    def test_single_partition_has_no_cut(self):
        spec = TopologySpec.chain(3)
        plan = auto_partition(spec, 1)
        assert plan.cut_links(spec) == ()
        assert plan.window(spec) == math.inf

    def test_too_many_partitions_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot split"):
            auto_partition(TopologySpec.chain(2), 3)

    def test_mapping_round_trip(self):
        plan = PartitionPlan.from_mapping({"C1": 0, "C2": 0, "C3": 1, "C4": 1})
        restored = PartitionPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.partition_of("C3") == 1

    def test_mapping_validation(self):
        with pytest.raises(ConfigurationError, match="empty"):
            PartitionPlan.from_mapping({})
        with pytest.raises(ConfigurationError, match="twice"):
            PartitionPlan((("C1", 0), ("C1", 0)), 1)
        with pytest.raises(ConfigurationError, match="outside"):
            PartitionPlan((("C1", 0), ("C2", 5)), 2)
        with pytest.raises(ConfigurationError, match="empty"):
            PartitionPlan((("C1", 0), ("C2", 0)), 2)
        with pytest.raises(ConfigurationError, match="declares"):
            PartitionPlan.from_dict(
                {"num_partitions": 3, "assignments": {"C1": 0, "C2": 1}}
            )

    def test_validate_for_checks_core_cover(self):
        spec = TopologySpec.chain(3)
        plan = PartitionPlan.from_mapping({"C1": 0, "C2": 1})
        with pytest.raises(ConfigurationError, match="does not match topology"):
            plan.validate_for(spec)

    def test_zero_delay_cut_is_rejected(self):
        spec = TopologySpec.chain(2, prop_delay=0.0)
        plan = PartitionPlan.from_mapping({"C1": 0, "C2": 1})
        with pytest.raises(ConfigurationError, match="zero-delay"):
            plan.window(spec)

    def test_spec_partition_plan_manual_override(self):
        spec = TopologySpec.chain(4)
        plan = spec.partition_plan(2, assignments={"C1": 0, "C2": 1, "C3": 1, "C4": 0})
        assert plan.partition_of("C4") == 0
        with pytest.raises(TopologyError):
            spec.partition_plan(3, assignments={"C1": 0, "C2": 1, "C3": 1, "C4": 0})

    def test_shadow_graph_matches_serial_paths(self):
        spec = TopologySpec.chain(4)
        flows = chain_flows()
        shadow = ShadowGraph(spec, flows)
        builder = CloudBuilder(spec, scheme="corelite", seed=0)
        builder.add_flows(flows)
        cloud = builder.build()
        for flow in flows:
            assert shadow.path_link_names(
                flow.ingress_edge, flow.egress_edge
            ) == cloud.flow_path_links(flow.flow_id)
            assert shadow.path_delay(
                flow.ingress_edge, flow.egress_edge
            ) == cloud.topology.path_delay(flow.ingress_edge, flow.egress_edge)
        assert shadow.capacities == cloud.link_capacities()


# -- windowed engine -----------------------------------------------------------


class TestWindowedEngine:
    def test_run_window_advances_clock_to_barrier(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(0.5, fired.append, 1)
        sim.schedule_at(1.5, fired.append, 2)
        sim.run_window(1.0)
        assert fired == [1]
        assert sim.now == 1.0
        sim.run_window(2.0)
        assert fired == [1, 2]

    def test_run_window_into_the_past_raises(self):
        sim = Simulator()
        sim.run_window(1.0)
        with pytest.raises(SimulationError, match="past"):
            sim.run_window(0.5)

    def test_inject_into_the_past_raises(self):
        sim = Simulator()
        sim.run_window(1.0)
        with pytest.raises(SimulationError, match="past"):
            sim.inject(0.5, lambda: None)

    def test_inject_from_inside_run_raises(self):
        sim = Simulator()

        def evil():
            sim.inject(2.0, lambda: None)

        sim.schedule_at(0.5, evil)
        with pytest.raises(SimulationError, match="between windows"):
            sim.run(until=1.0)

    def test_injected_events_dispatch_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.run_window(1.0)
        sim.inject(1.5, fired.append, "b")
        sim.inject(1.25, fired.append, "a")
        sim.schedule_at(1.75, fired.append, "c")
        sim.run_window(2.0)
        assert fired == ["a", "b", "c"]


# -- serial equivalence --------------------------------------------------------


class TestTwoPartitionChainEquivalence:
    """The tentpole pin: a two-way chain split is *exactly* the serial run."""

    @pytest.mark.parametrize("scheme", ["corelite", "csfq", "fifo"])
    def test_backlogged_chain_matches_serial_exactly(self, scheme):
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), scheme, 30.0
        )
        assert_identical(serial, parallel)
        assert serial.total_delivered() > 0

    def test_policy_drops_sum_over_partitions(self):
        serial, parallel = run_pair(TopologySpec.chain(4), chain_flows(), "csfq", 30.0)
        assert parallel.policy_drops == serial.policy_drops > 0

    def test_rich_corelite_scenario_matches_serial_exactly(self):
        serial, parallel = run_pair(
            TopologySpec.chain(4), rich_flows(), "corelite", 30.0
        )
        assert_identical(serial, parallel)
        assert all(record.delivered > 0 for record in parallel.flows.values())

    def test_manual_plan_override_matches_serial_exactly(self):
        spec = TopologySpec.chain(4)
        plan = spec.partition_plan(2, assignments={"C1": 0, "C2": 0, "C3": 0, "C4": 1})
        serial, parallel = run_pair(
            spec, chain_flows(), "corelite", 30.0, plan=plan
        )
        assert_identical(serial, parallel)

    def test_byte_identical_toggles_still_match(self):
        serial, parallel = run_pair(TopologySpec.chain(4), chain_flows(), "corelite", 20.0)
        assert_identical(serial, parallel)

    def test_process_mode_matches_serial_exactly(self):
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 20.0, mode="process"
        )
        assert_identical(serial, parallel)

    @pytest.mark.parametrize("shape", ["chain", "leaf_spine_ecmp"])
    def test_worker_tables_equal_serial_tables(self, shape):
        # Workers build their tables with the serial builder over the
        # shadow graph; every local router must end up with the serial
        # router's effective table: same destinations, same links, same
        # ECMP candidate order.
        def tables(cloud):
            return {
                name: (
                    [(dst, link.name) for dst, link in node.routes().items()],
                    [
                        (dst, [link.name for link in links])
                        for dst, links in node._ecmp_routes.items()
                    ],
                )
                for name, node in cloud.topology.nodes.items()
            }

        if shape == "chain":
            spec, flows = TopologySpec.chain(4), chain_flows()
        else:
            spec = TopologySpec.leaf_spine(leaves=2, spines=2)
            flows = [
                FlowPathSpec(1, weight=1.0, ingress_core="L1", egress_core="L2"),
                FlowPathSpec(2, weight=2.0, ingress_core="L2", egress_core="L1"),
            ]

        def builder():
            b = CloudBuilder(spec, scheme="corelite", seed=7)
            b.add_flows(flows)
            return b

        serial = tables(builder().build())
        b = builder()
        b.partitions = 2
        b.pdes_mode = "inline"
        session = b.build_parallel().start()
        try:
            local = [tables(worker.cloud) for worker in session.workers]
        finally:
            session.close()
        assert set(local[0]) | set(local[1]) == set(serial)
        assert not set(local[0]) & set(local[1])
        for worker_tables in local:
            for name, table in worker_tables.items():
                assert table == serial[name], name
                assert table[0], name
        if shape == "leaf_spine_ecmp":
            both_spines = ["L1->S1", "L1->S2"]
            assert serial["L1"][1] == [("Eout1", both_spines), ("Ein2", both_spines)]

    def test_csfq_loss_notifications_cross_the_cut(self):
        # Unresponsive overload: egress loss notifications must travel
        # back across the partition boundary to throttle the sources.
        spec = TopologySpec.chain(4, queue_capacity=20.0)
        flows = [
            FlowPathSpec(
                fid,
                weight=1.0,
                ingress_core="C1",
                egress_core="C4",
                source=SourceSpec(kind="poisson", mean_rate=400.0),
            )
            for fid in (1, 2)
        ]
        serial, parallel = run_pair(spec, flows, "csfq", 30.0)
        assert_identical(serial, parallel)
        assert serial.total_losses() > 0


class TestFourPartitionStatisticalPins:
    """Mesh and parking-lot at one core per partition: the acceptance
    pins are statistical (Jain + 2% mean rates), though the runs are in
    fact exact — asserted on top as a regression canary."""

    def assert_pinned(self, serial, parallel, window):
        serial_rates = serial.mean_rates(window)
        parallel_rates = parallel.mean_rates(window)
        for fid, expect in serial_rates.items():
            got = parallel_rates[fid]
            assert got == pytest.approx(expect, rel=0.02), fid
        assert parallel.fairness_at(window) == pytest.approx(
            serial.fairness_at(window), abs=0.01
        )

    def test_mesh_workload_four_partitions(self):
        spec = TopologySpec.mesh()
        serial, parallel = run_pair(
            spec, mesh_flows(), "corelite", 40.0, partitions=4
        )
        self.assert_pinned(serial, parallel, (20.0, 40.0))
        assert_identical(serial, parallel)

    def test_parking_lot_workload_four_partitions(self):
        spec = TopologySpec.parking_lot(hops=3)
        serial, parallel = run_pair(
            spec, parking_lot_flows(hops=3), "corelite", 40.0, partitions=4
        )
        self.assert_pinned(serial, parallel, (20.0, 40.0))
        assert_identical(serial, parallel)


# -- adaptive lookahead --------------------------------------------------------


class TestLookaheadClosure:
    def test_channel_delay_matrix_keeps_the_minimum(self):
        matrix = channel_delay_matrix(
            2, [(0, 1, 0.04), (0, 1, 0.2), (1, 0, 0.08), (0, 0, 0.01)]
        )
        assert matrix[0][1] == pytest.approx(0.04)
        assert matrix[1][0] == pytest.approx(0.08)
        # Same-partition channels never constrain the barrier.
        assert matrix[0][0] == math.inf

    def test_channel_delay_matrix_rejects_zero_delay(self):
        with pytest.raises(ConfigurationError, match="non-positive"):
            channel_delay_matrix(2, [(0, 1, 0.0)])

    def test_closure_tightens_via_relay_and_keeps_cycles(self):
        # 0->1 direct is slow (1.0) but via 2 costs 0.1+0.1; the diagonal
        # is the min cycle weight, not zero (>=1-hop walks only).
        matrix = channel_delay_matrix(
            3, [(0, 1, 1.0), (0, 2, 0.1), (2, 1, 0.1), (1, 0, 0.3)]
        )
        closed = lookahead_closure(matrix)
        assert closed[0][1] == pytest.approx(0.2)
        assert closed[0][0] == pytest.approx(0.5)  # 0->2->1->0
        assert closed[2][2] == pytest.approx(0.5)  # 2->1->0->2
        assert closed[1][1] == pytest.approx(0.5)  # 1->0->2->1

    def test_closure_never_undercuts_the_static_window(self):
        # Every adaptive bound is a >=1-hop walk over channels, each of
        # which crosses at least one cut link, so no entry of the
        # closure can be below the plan's static window.
        spec = TopologySpec.chain(4)
        cloud = ParallelCloud(
            spec, "corelite", chain_flows(), partitions=2, mode="inline"
        )
        closed = cloud._lookahead
        assert min(min(row) for row in closed) >= cloud.window


class TestAdaptiveWindows:
    """The PR-10 tentpole: dynamic barriers stay byte-identical and cut
    the barrier count by well over the acceptance floor of 3x."""

    def test_adaptive_four_partition_chain_matches_serial_exactly(self):
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 30.0,
            partitions=4,
        )
        assert_identical(serial, parallel)

    def test_adaptive_process_mode_matches_serial_exactly(self):
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 20.0,
            mode="process",
        )
        assert_identical(serial, parallel)

    def test_barrier_count_drops_at_least_3x_on_the_chain_rung(self):
        builder = pdes_scaling_builder(64, 2)
        builder.pdes_mode = "inline"
        parallel = builder.build_parallel()
        session = parallel.start()
        try:
            parallel.execute(session, 16.0, sample_interval=1.0)
        finally:
            session.close()
        # The lock-step protocol this replaced stepped every partition
        # once per static window.
        lock_step = 2 * math.ceil(16.0 / parallel.window)
        assert lock_step >= 3 * parallel.barriers

    def test_trains_cross_cut_links_whole(self):
        # PR-9 composition: with a plain-FIFO cut the train carrier must
        # survive the boundary intact, and the run stays byte-identical
        # (the wire format round-trips count/markers/labels).
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 20.0,
            train_batch=8,
        )
        assert_identical(serial, parallel)
        assert serial.total_delivered() > 0
        assert all(r.delay["count"] == r.delivered for r in parallel.flows.values())

    @staticmethod
    def _inline_train_session(partitions):
        b = CloudBuilder(TopologySpec.chain(4), scheme="corelite", seed=7, train_batch=8)
        b.add_flows(chain_flows())
        b.partitions = partitions
        b.pdes_mode = "inline"
        return b.build_parallel().start()

    def test_cut_links_never_end_at_an_egress_edge(self):
        # The egress edge spaces a train's member delays by the link that
        # delivers it, and an injected packet arrives without one.  Cuts
        # join cores, so that hop is always local -- checked, not assumed.
        session = self._inline_train_session(4)
        try:
            cut = 0
            for worker in session.workers:
                cloud = worker.cloud
                for link in cloud.topology.links.values():
                    if isinstance(link, BoundaryLink):
                        cut += 1
                        assert link.dst.name in cloud.spec.cores
            assert cut == 6  # three chain links, both directions
        finally:
            session.close()

    def test_a_train_injected_into_its_egress_edge_is_an_error(self):
        session = self._inline_train_session(2)
        try:
            worker = session.workers[1]
            flow = next(f for f in chain_flows() if f.egress_edge in worker.cloud.edges)
            batch = _OutBatch()
            train = PacketTrain(
                flow.flow_id, flow.ingress_edge, flow.egress_edge, 0, 4, created_at=0.0
            )
            batch.add(0.0, 0.5, 0, flow.egress_edge, train)
            with pytest.raises(SimulationError, match="egress edge"):
                worker.inject_batches([(0, batch.payload())])
        finally:
            session.close()

    def test_trains_cross_cut_links_in_process_mode(self):
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 15.0,
            mode="process", train_batch=8,
        )
        assert_identical(serial, parallel)

    def test_idle_partitions_skip_round_trips(self):
        # Flows quiesce after 1s; FIFO partitions then hold no periodic
        # control timers, so the coordinator's cached promises let it
        # bump clocks without touching the workers.
        def builder():
            b = CloudBuilder(TopologySpec.chain(4), scheme="fifo", seed=3)
            b.add_flows(
                [
                    FlowPathSpec(
                        1, ingress_core="C1", egress_core="C4",
                        schedule=((0.0, 1.0),),
                    ),
                    FlowPathSpec(
                        2, ingress_core="C4", egress_core="C1",
                        schedule=((0.0, 1.0),),
                    ),
                ]
            )
            return b

        serial = builder().run(until=8.0, sample_interval=10.0)
        b = builder()
        b.partitions = 2
        b.pdes_mode = "inline"
        parallel_cloud = b.build_parallel()
        session = parallel_cloud.start()
        try:
            parallel = parallel_cloud.execute(session, 8.0, sample_interval=10.0)
        finally:
            session.close()
        assert parallel_cloud.skips > 0
        assert_identical(serial, parallel)

    def test_record_queues_in_process_mode_matches_serial(self):
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 15.0,
            mode="process", record_queues=True,
        )
        for name, series in serial.queue_series.items():
            assert list(series) == list(parallel.queue_series[name]), name


# -- v1 restrictions and API guards --------------------------------------------


class TestRestrictions:
    def make(self, **kw):
        return ParallelCloud(
            TopologySpec.chain(4),
            "corelite",
            chain_flows(),
            partitions=2,
            mode="inline",
            **kw,
        )

    def test_build_rejects_multiple_partitions(self):
        builder = CloudBuilder(TopologySpec.chain(4), partitions=2)
        with pytest.raises(ConfigurationError, match="build_parallel"):
            builder.build()

    def test_builder_validates_partition_kwargs(self):
        with pytest.raises(ConfigurationError, match="partitions"):
            CloudBuilder(TopologySpec.chain(4), partitions=0)
        with pytest.raises(ConfigurationError, match="pdes_mode"):
            CloudBuilder(TopologySpec.chain(4), pdes_mode="thread")

    def test_record_queues_matches_serial_exactly(self):
        # Formerly a v1 rejection: per-partition queue sampling now runs
        # at the serial instants and the merge reassembles the full map.
        serial, parallel = run_pair(
            TopologySpec.chain(4), chain_flows(), "corelite", 20.0,
            record_queues=True,
        )
        assert set(serial.queue_series) == set(parallel.queue_series)
        assert serial.queue_series  # the chain has core-core links
        for name, series in serial.queue_series.items():
            assert list(series) == list(parallel.queue_series[name]), name

    def test_dynamics_events_rejected(self):
        from repro.sim.dynamics import NetworkEvent

        spec = TopologySpec.chain(
            4, events=(NetworkEvent(5.0, "link_down", "C2", "C3"),)
        )
        with pytest.raises(ConfigurationError, match="dynamics"):
            ParallelCloud(spec, "corelite", chain_flows(), partitions=2)

    def test_tcp_flows_rejected(self):
        flows = [
            FlowPathSpec(1, ingress_core="C1", egress_core="C4", transport="tcp")
        ]
        with pytest.raises(ConfigurationError, match="TCP"):
            ParallelCloud(TopologySpec.chain(4), "corelite", flows, partitions=2)

    def test_queue_factory_needs_inline_mode(self):
        from repro.sim.queues import DropTailQueue

        with pytest.raises(ConfigurationError, match="inline"):
            ParallelCloud(
                TopologySpec.chain(4),
                "corelite",
                chain_flows(),
                partitions=2,
                mode="process",
                queue_factory=lambda: DropTailQueue(capacity=40),
            )

    def test_empty_flows_rejected(self):
        with pytest.raises(ConfigurationError, match="no flows"):
            ParallelCloud(TopologySpec.chain(4), "corelite", [], partitions=2)

    def test_duplicate_flow_ids_rejected(self):
        flows = [
            FlowPathSpec(1, ingress_core="C1", egress_core="C4"),
            FlowPathSpec(1, ingress_core="C2", egress_core="C3"),
        ]
        with pytest.raises(ConfigurationError, match="duplicate"):
            ParallelCloud(TopologySpec.chain(4), "corelite", flows, partitions=2)

    def test_plan_partition_count_must_match(self):
        plan = PartitionPlan.from_mapping({"C1": 0, "C2": 0, "C3": 1, "C4": 1})
        with pytest.raises(ConfigurationError, match="asked for"):
            ParallelCloud(
                TopologySpec.chain(4),
                "corelite",
                chain_flows(),
                partitions=3,
                plan=plan,
            )

    def test_admission_rejection_matches_serial_message(self):
        flows = [
            FlowPathSpec(
                1, ingress_core="C1", egress_core="C4", min_rate=10_000.0
            )
        ]
        with pytest.raises(ConfigurationError, match="rejected by admission") as serial:
            b = CloudBuilder(TopologySpec.chain(4), scheme="corelite")
            b.add_flows(flows)
            b.run(until=5.0)
        with pytest.raises(ConfigurationError, match="rejected by admission") as par:
            ParallelCloud(
                TopologySpec.chain(4),
                "corelite",
                flows,
                partitions=2,
                mode="inline",
            ).run(until=5.0)
        assert str(par.value) == str(serial.value)
