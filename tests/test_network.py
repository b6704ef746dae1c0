"""Unit tests for ``Cloud`` construction (end-to-end behavior is covered
by test_integration.py)."""

import math

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.core.config import CoreliteConfig
from repro.errors import ConfigurationError, FlowError, TopologyError


class TestFlowSpec:
    def test_defaults(self):
        s = FlowSpec(flow_id=1)
        assert s.weight == 1.0
        assert s.schedule == ((0.0, math.inf),)
        assert s.ingress_edge == "Ein1"
        assert s.egress_edge == "Eout1"

    def test_same_core_rejected(self):
        with pytest.raises(FlowError):
            FlowSpec(flow_id=1, ingress_core="C1", egress_core="C1")

    def test_bad_schedule_rejected(self):
        with pytest.raises(FlowError):
            FlowSpec(flow_id=1, schedule=((5.0, 5.0),))
        with pytest.raises(FlowError):
            FlowSpec(flow_id=1, schedule=((-1.0, 5.0),))

    def test_bad_weight_rejected(self):
        with pytest.raises(FlowError):
            FlowSpec(flow_id=1, weight=0.0)


class TestConstruction:
    def test_chain_topology_has_core_links(self):
        net = CloudBuilder(TopologySpec.chain(4), "corelite").build(finalize=False)
        assert net.core_names == ["C1", "C2", "C3", "C4"]
        assert "C1->C2" in net.topology.links
        assert "C3->C2" in net.topology.links

    def test_needs_two_cores(self):
        with pytest.raises(TopologyError):  # the spec's guard; the shim's own is gone
            CloudBuilder(TopologySpec.chain(1), "corelite")

    def test_add_flow_creates_edges_and_links(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        net = builder.add_flow(FlowSpec(flow_id=3)).build()
        assert "Ein3" in net.topology.nodes
        assert "Eout3" in net.topology.nodes
        assert "Ein3->C1" in net.topology.links
        assert "C2->Eout3" in net.topology.links

    def test_duplicate_flow_rejected(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        builder.add_flow(FlowSpec(flow_id=1)).add_flow(FlowSpec(flow_id=1))
        with pytest.raises(FlowError):
            builder.build()

    def test_unknown_core_rejected(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        builder.add_flow(FlowSpec(flow_id=1, egress_core="C9"))
        with pytest.raises(TopologyError):
            builder.build()

    def test_no_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            CloudBuilder(TopologySpec.chain(2), "corelite").build()

    def test_add_after_finalize_rejected(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        net = builder.add_flow(FlowSpec(flow_id=1)).build()
        with pytest.raises(ConfigurationError):
            net.add_flow(FlowSpec(flow_id=2))

    def test_flow_path_links(self):
        net = CloudBuilder(TopologySpec.chain(4), "corelite").add_flow(
            FlowSpec(flow_id=9, ingress_core="C1", egress_core="C4")
        ).build()
        assert net.flow_path_links(9) == (
            "Ein9->C1", "C1->C2", "C2->C3", "C3->C4", "C4->Eout9",
        )

    def test_corelite_enables_feedback_on_core_output_links(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        net = builder.add_flow(FlowSpec(flow_id=1)).build()
        c1 = net.core_router("C1")
        assert "C1->C2" in c1.enabled_links()
        assert "C1->Ein1" in c1.enabled_links()  # reverse access link too

    def test_fifo_network_enables_nothing(self):
        builder = CloudBuilder(TopologySpec.chain(2), "fifo")
        net = builder.add_flow(FlowSpec(flow_id=1)).build()
        assert net.core_router("C1").enabled_links() == ()

    def test_config_copied_not_shared(self):
        cfg = CoreliteConfig()
        net = CloudBuilder(TopologySpec.chain(2), "corelite", config=cfg).build(finalize=False)
        assert net.config is not cfg
        assert net.config.max_rate == 500.0  # clamped to access capacity

    def test_min_rate_rejected_for_csfq(self):
        builder = CloudBuilder(TopologySpec.chain(2), "csfq")
        builder.add_flow(FlowSpec(flow_id=1, min_rate=5.0))
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_rtt_matches_paper(self):
        """One-way path delays on Topology 1: 120/160/200 ms -> RTTs of
        240/320/400 ms as stated in §4.1."""
        net = CloudBuilder(TopologySpec.chain(4), "corelite").add_flows([
            FlowSpec(flow_id=1, ingress_core="C1", egress_core="C2"),
            FlowSpec(flow_id=6, ingress_core="C1", egress_core="C3"),
            FlowSpec(flow_id=9, ingress_core="C1", egress_core="C4"),
        ]).build()
        topo = net.topology
        assert topo.path_delay("Ein1", "Eout1") == pytest.approx(0.120)
        assert topo.path_delay("Ein6", "Eout6") == pytest.approx(0.160)
        assert topo.path_delay("Ein9", "Eout9") == pytest.approx(0.200)


class TestRunValidation:
    def test_bad_duration(self):
        """A NaN or infinite horizon would never end."""
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        builder.add_flow(FlowSpec(flow_id=1))
        for until in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"duration.*{until}"):
                builder.run(until=until)

    def test_bad_sample_interval(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        builder.add_flow(FlowSpec(flow_id=1))
        for interval in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"interval.*{interval}"):
                builder.run(until=1.0, sample_interval=interval)

    def test_short_run_produces_result(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite")
        res = builder.add_flow(FlowSpec(flow_id=1)).run(until=2.0, sample_interval=0.5)
        assert res.scheme == "corelite"
        assert 1 in res.flows
        assert len(res.flows[1].rate_series) == 4
