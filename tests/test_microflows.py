"""Unit + integration tests for micro-flow aggregation."""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.core.microflows import MicroFlowMux
from repro.errors import ConfigurationError, FlowError
from repro.sim.sources import poisson_source


class TestMux:
    def test_round_robin_over_backlogged(self):
        mux = MicroFlowMux((1, 2, 3))
        for mid in (1, 2, 3):
            mux.deposit(mid, 2)
        order = [mux.pop() for _ in range(6)]
        assert order == [1, 2, 3, 1, 2, 3]

    def test_idle_micros_are_skipped(self):
        mux = MicroFlowMux((1, 2, 3))
        mux.deposit(2, 2)
        assert mux.pop() == 2
        assert mux.pop() == 2
        assert mux.pop() is None

    def test_total_backlog(self):
        mux = MicroFlowMux((1, 2))
        mux.deposit(1, 3)
        mux.deposit(2, 1)
        assert mux.total_backlog == 4
        mux.pop()
        assert mux.total_backlog == 3

    def test_counters(self):
        mux = MicroFlowMux((1, 2))
        mux.deposit(1, 2)
        mux.pop()
        assert mux.offered == {1: 2, 2: 0}
        assert mux.sent == {1: 1, 2: 0}

    def test_unknown_micro_rejected(self):
        mux = MicroFlowMux((1,))
        with pytest.raises(FlowError):
            mux.deposit(9)
        with pytest.raises(FlowError):
            mux.backlog(9)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            MicroFlowMux(())
        with pytest.raises(ConfigurationError):
            MicroFlowMux((1, 1))
        with pytest.raises(ConfigurationError):
            MicroFlowMux((0,))


class TestFlowSpecValidation:
    def test_micro_flows_exclusive_with_source(self):
        with pytest.raises(FlowError):
            FlowSpec(
                flow_id=1,
                source=poisson_source(10.0),
                micro_flows=((1, poisson_source(10.0)),),
            )

    def test_micro_sources_must_be_finite(self):
        from repro.sim.sources import BACKLOGGED

        with pytest.raises(FlowError):
            FlowSpec(flow_id=1, micro_flows=((1, BACKLOGGED),))

    def test_duplicate_micro_ids(self):
        with pytest.raises(FlowError):
            FlowSpec(
                flow_id=1,
                micro_flows=(
                    (1, poisson_source(10.0)),
                    (1, poisson_source(10.0)),
                ),
            )

    def test_aggregate_is_not_backlogged(self):
        spec = FlowSpec(flow_id=1, micro_flows=((1, poisson_source(10.0)),))
        assert not spec.backlogged


class TestEndToEnd:
    def test_aggregate_shares_equally_among_microflows(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(
            flow_id=1, weight=2.0,
            micro_flows=tuple((m, poisson_source(200.0)) for m in (1, 2, 3)),
        ))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0))
        res = net.run(until=120.0)
        micro = res.flows[1].micro_delivered
        assert set(micro) == {1, 2, 3}
        lo, hi = min(micro.values()), max(micro.values())
        assert hi <= lo * 1.05  # equal split within 5%

    @pytest.mark.parametrize("train_batch", [1, 8])
    def test_micro_tally_has_no_unaggregated_key_and_sums_to_delivered(self, train_batch):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0, train_batch=train_batch)
        net.add_flow(FlowSpec(
            flow_id=1, weight=2.0,
            micro_flows=tuple((m, poisson_source(200.0)) for m in (1, 2, 3)),
        ))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0))
        cloud = net.build()
        res = cloud.run(until=20.0)
        micro = res.flows[1].micro_delivered
        assert set(micro) == {1, 2, 3}
        assert sum(micro.values()) == res.flows[1].delivered > 0
        # Micro-flow 0 is the remainder: all of a flow that is not a mux.
        egress = cloud.edges[cloud.flows[2].egress_edge]
        assert egress.delivered_by_micro(2) == {0: res.flows[2].delivered}

    def test_aggregate_gets_weighted_share_as_one_flow(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(
            flow_id=1, weight=2.0,
            micro_flows=tuple((m, poisson_source(300.0)) for m in (1, 2)),
        ))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0))
        res = net.run(until=150.0)
        rates = res.mean_rates((110.0, 150.0))
        assert rates[1] / rates[2] == pytest.approx(2.0, rel=0.2)

    def test_idle_micro_donates_bandwidth_within_aggregate(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(
            flow_id=1, weight=1.0,
            micro_flows=((1, poisson_source(400.0)), (2, poisson_source(20.0))),
        ))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0))
        res = net.run(until=120.0)
        micro = res.flows[1].micro_delivered
        # micro 2 is demand-limited (~20 pkt/s); micro 1 takes the rest.
        assert micro[2] == pytest.approx(20.0 * 120.0, rel=0.2)
        assert micro[1] > 3 * micro[2]

    def test_csfq_rejects_aggregation(self):
        net = CloudBuilder(TopologySpec.chain(2), "csfq", seed=0)
        net.add_flow(FlowSpec(
            flow_id=1, micro_flows=((1, poisson_source(10.0)),),
        ))
        with pytest.raises(ConfigurationError):
            net.run(until=1.0)

    def test_deposit_through_edge_rejected_when_aggregated(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        builder.add_flow(FlowSpec(
            flow_id=1, micro_flows=((1, poisson_source(10.0)),),
        ))
        net = builder.add_flow(FlowSpec(flow_id=2)).build()
        edge = net.edges["Ein1"]
        net.sim.schedule_at(0.0, edge.start_flow, 1)
        mux = net.strategy.attach_aggregate(net, edge, net.flows[1])
        with pytest.raises(FlowError):
            edge.deposit(1, 1)
