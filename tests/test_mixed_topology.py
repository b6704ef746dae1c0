"""Heterogeneous workloads on the paper topology: the kitchen-sink
integration tests a downstream user's deployment would look like."""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.sim.sources import onoff_source, poisson_source


class TestMultiHopTcp:
    def test_tcp_across_three_congested_links(self):
        """A TCP connection crossing all three core links (400 ms RTT
        path) against shaped cross-traffic on each link."""
        builder = CloudBuilder(TopologySpec.chain(4), "corelite", seed=0)
        builder.add_flow(FlowSpec(flow_id=1, weight=2.0, ingress_core="C1",
                                  egress_core="C4", transport="tcp"))
        builder.add_flow(FlowSpec(flow_id=2, weight=1.0, ingress_core="C1",
                                  egress_core="C2"))
        builder.add_flow(FlowSpec(flow_id=3, weight=1.0, ingress_core="C2",
                                  egress_core="C3"))
        builder.add_flow(FlowSpec(flow_id=4, weight=1.0, ingress_core="C3",
                                  egress_core="C4"))
        net = builder.build()
        res = net.run(until=150.0)
        window = (110.0, 150.0)
        rates = res.mean_rates(window)
        expected = res.expected_rates(at_time=120.0)
        # Allotments track the weighted max-min ideal (TCP w=2 gets 333,
        # each cross flow 167) within tolerance.
        for fid, exp in expected.items():
            assert rates[fid] == pytest.approx(exp, rel=0.25), (fid, rates[fid], exp)
        # The long-RTT TCP flow actually moves serious data.
        sender, receiver = net.tcp_hosts[1]
        assert receiver.delivered > 10_000
        assert sender.timeouts < 10

    def test_tcp_coexists_with_bursty_and_poisson_traffic(self):
        net = CloudBuilder(TopologySpec.chain(4), "corelite", seed=1)
        net.add_flow(FlowSpec(flow_id=1, weight=1.0, ingress_core="C1",
                              egress_core="C4", transport="tcp"))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0, ingress_core="C1",
                              egress_core="C4",
                              source=poisson_source(80.0)))
        net.add_flow(FlowSpec(flow_id=3, weight=1.0, ingress_core="C1",
                              egress_core="C4",
                              source=onoff_source(400.0, 0.3, 0.9)))
        net.add_flow(FlowSpec(flow_id=4, weight=1.0, ingress_core="C1",
                              egress_core="C4"))
        res = net.run(until=120.0)
        tput = res.mean_throughputs((80.0, 120.0))
        # the Poisson flow gets its offered load; nobody starves.
        assert tput[2] == pytest.approx(80.0, rel=0.2)
        for fid in (1, 3, 4):
            assert tput[fid] > 40.0, (fid, tput)
        # the always-backlogged shaped flow gets at least its fair share
        # of what the demand-limited flows leave on the table.
        assert tput[4] > 100.0
        # losses stay modest despite the burstiness.
        assert res.total_drops < 0.02 * res.total_delivered()


class TestContractsOnPaperTopology:
    def test_multi_hop_contract_admitted_and_honored(self):
        builder = CloudBuilder(TopologySpec.chain(4), "corelite", seed=0)
        builder.add_flow(FlowSpec(flow_id=1, weight=1.0, ingress_core="C1",
                                  egress_core="C4", min_rate=150.0))
        for fid, (a, b) in ((2, ("C1", "C2")), (3, ("C2", "C3")),
                            (4, ("C3", "C4"))):
            builder.add_flow(FlowSpec(flow_id=fid, weight=1.0,
                                      ingress_core=a, egress_core=b))
        net = builder.build()
        res = net.run(until=120.0)
        # contract reserved on every congested link of the path
        for link in ("C1->C2", "C2->C3", "C3->C4"):
            assert net.admission.reserved_on(link) == 150.0
        # and honored end to end
        assert min(res.flows[1].rate_series.window(5.0, 120.0).values) >= 150.0
        tput = res.mean_throughputs((90.0, 120.0))
        assert tput[1] >= 150.0 * 0.95
