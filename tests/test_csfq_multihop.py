"""CSFQ relabeling across multiple hops.

The SIGCOMM'98 design depends on relabeling: once a congested link trims
a flow to its fair share, the packet's label must reflect the *post-trim*
rate or downstream links would over-drop.  These tests verify the
mechanism end to end on a two-bottleneck chain.
"""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec


class TestRelabelingAcrossHops:
    def test_labels_shrink_at_each_congested_hop(self):
        """A flow crossing two congested links arrives at its egress with
        labels bounded by the tighter fair share, not its ingress rate."""
        builder = CloudBuilder(TopologySpec.chain(3), "csfq", seed=0)
        # long flow across both links, plus cross traffic on each
        builder.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C3"))
        builder.add_flow(FlowSpec(flow_id=2, ingress_core="C1", egress_core="C2"))
        builder.add_flow(FlowSpec(flow_id=3, ingress_core="C2", egress_core="C3"))
        net = builder.build()

        labels_at_egress = []
        egress_link = net.topology.links["C3->Eout1"]
        egress_link.add_delivery_tap(
            lambda p, t: labels_at_egress.append(p.label)
            if p.flow_id == 1 and p.size > 0 else None
        )
        for fid, spec in net.flows.items():
            net.sim.schedule_at(0.0, net.edges[spec.ingress_edge].start_flow, fid)
        net.sim.run(until=80.0)

        # steady state: flow 1's fair share is ~250 on each link; its
        # egress labels must be near/below that share, far below the
        # access capacity it could have been labeled with at ingress.
        steady = labels_at_egress[-500:]
        assert steady
        assert max(steady) < 400.0
        assert sum(steady) / len(steady) < 320.0

    def test_two_bottleneck_throughput_matches_maxmin(self):
        net = CloudBuilder(TopologySpec.chain(3), "csfq", seed=0)
        net.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C3"))
        net.add_flow(FlowSpec(flow_id=2, weight=2.0, ingress_core="C1",
                              egress_core="C2"))
        net.add_flow(FlowSpec(flow_id=3, weight=2.0, ingress_core="C2",
                              egress_core="C3"))
        res = net.run(until=120.0)
        tput = res.mean_throughputs((90.0, 120.0))
        expected = res.expected_rates(at_time=100.0)
        for fid, exp in expected.items():
            assert tput[fid] == pytest.approx(exp, rel=0.2), (fid, tput[fid], exp)

    def test_adaptive_sources_equalize_loss_rates(self):
        """With loss-driven sources the per-flow loss *counts* equalize
        regardless of hop count — each LIMD settles where its congestion
        signal rate matches its probe rate.  (The paper's §4.4 multi-hop
        loss penalty applies to the transient and to non-adaptive senders;
        this pins down the steady-state behaviour our model produces.)"""
        net = CloudBuilder(TopologySpec.chain(3), "csfq", seed=0)
        net.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C3"))
        net.add_flow(FlowSpec(flow_id=2, ingress_core="C1", egress_core="C2"))
        net.add_flow(FlowSpec(flow_id=3, ingress_core="C2", egress_core="C3"))
        res = net.run(until=120.0)
        losses = [res.flows[f].losses for f in (1, 2, 3)]
        assert max(losses) < 1.3 * max(1, min(losses)), losses
