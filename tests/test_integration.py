"""End-to-end integration tests: the paper's behavioral claims on small,
fast workloads.  These run whole simulations (a few wall-clock seconds in
total); the full-size reproductions live in benchmarks/.
"""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.experiments.scenarios import startup_flows
from repro.fairness.metrics import weighted_jain_index


def run_corelite(flows, until=60.0, seed=0, config=None):
    builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=seed, config=config)
    return builder.add_flows(flows).run(until=until)


class TestWeightedFairness:
    def test_two_flows_split_by_weight(self):
        # With only two flows the fair shares (167/333) sit far above the
        # slow-start landing point, so the linear phase needs ~100 s of
        # simulated time to climb there (alpha=1 per 0.3 s epoch).
        res = run_corelite(
            [FlowSpec(flow_id=1, weight=1.0), FlowSpec(flow_id=2, weight=2.0)],
            until=150.0,
        )
        rates = res.mean_rates((110.0, 150.0))
        assert rates[2] / rates[1] == pytest.approx(2.0, rel=0.15)
        total = rates[1] + rates[2]
        assert total == pytest.approx(500.0, rel=0.1)

    def test_equal_weights_split_evenly(self):
        res = run_corelite(
            [FlowSpec(flow_id=i, weight=1.0) for i in (1, 2, 3, 4)], until=60.0
        )
        rates = res.mean_rates((40.0, 60.0))
        assert weighted_jain_index(list(rates.values()), [1.0] * 4) > 0.98

    def test_startup_workload_matches_expected_within_10_percent(self):
        res = run_corelite(startup_flows(10), until=60.0)
        rates = res.mean_rates((40.0, 60.0))
        expected = res.expected_rates(at_time=50.0)
        for fid, exp in expected.items():
            assert rates[fid] == pytest.approx(exp, rel=0.15), f"flow {fid}"

    def test_corelite_is_nearly_lossless(self):
        res = run_corelite(startup_flows(10), until=60.0)
        # The paper's claim: rate adaptation without packet loss.  Allow the
        # startup transient only: < 0.5% of delivered traffic.
        assert res.total_drops < 0.005 * res.total_delivered()


class TestMarkerCacheScheme:
    def test_cache_scheme_converges_losslessly(self):
        cfg = CoreliteConfig(feedback_scheme=FeedbackScheme.MARKER_CACHE)
        res = run_corelite(
            [FlowSpec(flow_id=1, weight=1.0), FlowSpec(flow_id=2, weight=2.0)],
            until=150.0,
            config=cfg,
        )
        assert res.total_drops == 0
        rates = res.mean_rates((110.0, 150.0))
        # The cache variant is less precise than selective, but must still
        # give the heavier flow clearly more.
        assert rates[2] > rates[1] * 1.3


class TestMultiHop:
    def test_parking_lot_maxmin(self):
        """A long flow across two congested links and short cross-flows:
        weighted max-min gives everyone the same per-weight share."""
        net = CloudBuilder(TopologySpec.chain(3), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C3"))
        net.add_flow(FlowSpec(flow_id=2, ingress_core="C1", egress_core="C2"))
        net.add_flow(FlowSpec(flow_id=3, ingress_core="C2", egress_core="C3"))
        res = net.run(until=80.0)
        rates = res.mean_rates((50.0, 80.0))
        expected = res.expected_rates(at_time=60.0)
        for fid in (1, 2, 3):
            assert rates[fid] == pytest.approx(expected[fid], rel=0.15)

    def test_cumulative_service_same_weight_same_service(self):
        """Figure 4's point: equal-weight flows get equal cumulative
        service regardless of hop count."""
        net = CloudBuilder(TopologySpec.chain(3), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C3"))  # 2 hops
        net.add_flow(FlowSpec(flow_id=2, ingress_core="C1", egress_core="C2"))  # 1 hop
        net.add_flow(FlowSpec(flow_id=3, ingress_core="C2", egress_core="C3"))  # 1 hop
        res = net.run(until=80.0)
        delivered = {fid: res.flows[fid].delivered for fid in (1, 2, 3)}
        assert delivered[1] == pytest.approx(delivered[2], rel=0.15)
        assert delivered[1] == pytest.approx(delivered[3], rel=0.15)


class TestDynamics:
    def test_new_flow_claims_weighted_share(self):
        # alpha=3 speeds the linear climb so the lone flow can actually
        # reach link capacity within the test horizon.
        res = run_corelite(
            [
                FlowSpec(flow_id=1, weight=1.0),
                FlowSpec(flow_id=2, weight=1.0, schedule=((70.0, 200.0),)),
            ],
            until=130.0,
            config=CoreliteConfig(alpha=3.0),
        )
        solo = res.mean_rates((55.0, 69.0))
        shared = res.mean_rates((105.0, 130.0))
        assert solo[1] == pytest.approx(500.0, rel=0.12)
        assert shared[1] == pytest.approx(250.0, rel=0.2)
        assert shared[2] == pytest.approx(250.0, rel=0.2)

    def test_rate_recovers_after_flow_leaves(self):
        res = run_corelite(
            [
                FlowSpec(flow_id=1, weight=1.0),
                FlowSpec(flow_id=2, weight=1.0, schedule=((0.0, 40.0),)),
            ],
            until=120.0,
        )
        shared = res.mean_rates((25.0, 39.0))
        solo = res.mean_rates((100.0, 120.0))
        assert shared[1] < 300.0
        assert solo[1] > shared[1] * 1.4  # climbed back toward capacity

    def test_restarting_flow_goes_through_slow_start_again(self):
        res = run_corelite(
            [
                FlowSpec(flow_id=1, weight=1.0),
                FlowSpec(flow_id=2, weight=1.0, schedule=((0.0, 30.0), (35.0, 100.0))),
            ],
            until=60.0,
        )
        series = res.flows[2].rate_series
        # right after restart the rate is tiny again
        assert series.value_at(36.0) <= 4.0


class TestCorelitVsCsfq:
    def test_csfq_also_converges_but_with_losses(self):
        specs = startup_flows(6)
        corelite = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        corelite.add_flows(specs)
        res_corelite = corelite.run(until=60.0)
        csfq = CloudBuilder(TopologySpec.chain(2), "csfq", seed=0)
        csfq.add_flows(specs)
        res_csfq = csfq.run(until=60.0)

        for res in (res_corelite, res_csfq):
            tput = res.mean_throughputs((40.0, 60.0))
            expected = res.expected_rates(at_time=50.0)
            for fid, exp in expected.items():
                assert tput[fid] == pytest.approx(exp, rel=0.2), (res.scheme, fid)
        # the paper's qualitative contrast
        assert res_csfq.total_losses() > 10 * max(1, res_corelite.total_losses())

    def test_fifo_gives_no_weighted_fairness(self):
        specs = startup_flows(6)
        fifo = CloudBuilder(TopologySpec.chain(2), "fifo", seed=0)
        fifo.add_flows(specs)
        res = fifo.run(until=60.0)
        rates = res.mean_rates((40.0, 60.0))
        weights = [res.flows[f].weight for f in sorted(rates)]
        wj = weighted_jain_index([rates[f] for f in sorted(rates)], weights)
        assert wj < 0.9  # visibly unfair in the weighted sense


class TestMinimumRateContracts:
    def test_contracted_flow_keeps_its_floor(self):
        res = run_corelite(
            [
                FlowSpec(flow_id=1, weight=1.0, min_rate=200.0),
                FlowSpec(flow_id=2, weight=1.0),
                FlowSpec(flow_id=3, weight=1.0),
            ],
            until=80.0,
        )
        rates = res.mean_rates((50.0, 80.0))
        assert rates[1] >= 200.0 * 0.99
        # remaining capacity split between flows 2 and 3
        assert rates[2] == pytest.approx(rates[3], rel=0.25)


class TestDeterminism:
    def test_same_seed_same_result(self):
        specs = [FlowSpec(flow_id=1, weight=1.0), FlowSpec(flow_id=2, weight=3.0)]
        runs = []
        for _ in range(2):
            net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=123)
            net.add_flows(specs)
            res = net.run(until=20.0)
            runs.append(
                tuple(res.flows[1].rate_series.values) + tuple(res.flows[2].rate_series.values)
            )
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        specs = startup_flows(4)
        outcomes = []
        for seed in (1, 2):
            net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=seed)
            net.add_flows(specs)
            res = net.run(until=20.0)
            outcomes.append(tuple(res.flows[1].rate_series.values))
        assert outcomes[0] != outcomes[1]
