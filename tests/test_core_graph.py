"""Tests for arbitrary core graphs (beyond the paper's chain)."""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.errors import TopologyError
from repro.experiments.topospec import LinkSpec
from repro.fairness.metrics import weighted_jain_index


def star_links(capacity=500.0, delay=0.02):
    """Hub-and-spoke: H in the middle, A/B/C around it."""
    return [
        ("H", "A", capacity, delay),
        ("H", "B", capacity, delay),
        ("H", "C", capacity, delay),
    ]


def graph(rows):
    """A custom spec from ``(a, b, capacity_pps, prop_delay)`` rows."""
    return TopologySpec(links=tuple(LinkSpec(*row) for row in rows))


class TestConstruction:
    def test_core_names_derived_from_edges(self):
        spec = graph(star_links())
        net = CloudBuilder(spec, "corelite").build(finalize=False)
        assert set(net.core_names) == {"H", "A", "B", "C"}

    def test_links_built_duplex(self):
        spec = graph(star_links())
        net = CloudBuilder(spec, "corelite").build(finalize=False)
        assert "H->A" in net.topology.links
        assert "A->H" in net.topology.links

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):  # the spec's guard; the shim's own is gone
            CloudBuilder(graph([]), "corelite")

    def test_ring_routing_takes_shortest_arc(self):
        ring = [
            ("C1", "C2", 500.0, 0.01),
            ("C2", "C3", 500.0, 0.01),
            ("C3", "C4", 500.0, 0.01),
            ("C4", "C1", 500.0, 0.01),
        ]
        builder = CloudBuilder(graph(ring), "corelite")
        builder.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C2"))
        path = builder.build().flow_path_links(1)
        # direct arc, not the long way around
        assert "C1->C2" in path
        assert "C1->C4" not in path


class TestFairnessOnAStar:
    def test_weighted_fairness_through_a_hub(self):
        """Three flows cross the hub toward the same spoke: the shared
        H->C link is the bottleneck and is split by weight."""
        net = CloudBuilder(graph(star_links()), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, weight=1.0, ingress_core="A", egress_core="C"))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0, ingress_core="B", egress_core="C"))
        net.add_flow(FlowSpec(flow_id=3, weight=2.0, ingress_core="A", egress_core="C"))
        res = net.run(until=120.0)
        rates = res.mean_rates((90.0, 120.0))
        expected = res.expected_rates(at_time=100.0)
        for fid, exp in expected.items():
            assert rates[fid] == pytest.approx(exp, rel=0.2), (fid, rates[fid], exp)
        wj = weighted_jain_index(
            [rates[f] for f in sorted(rates)],
            [res.flows[f].weight for f in sorted(rates)],
        )
        assert wj > 0.97

    def test_cross_traffic_on_disjoint_spokes_does_not_interfere(self):
        net = CloudBuilder(graph(star_links()), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, ingress_core="A", egress_core="B"))
        net.add_flow(FlowSpec(flow_id=2, ingress_core="B", egress_core="C"))
        res = net.run(until=150.0)
        rates = res.mean_rates((120.0, 150.0))
        expected = res.expected_rates(at_time=130.0)
        # A->B uses H->B; B->C uses H->C: they share no congested link,
        # so both converge toward the full 500 pkt/s independently.
        for fid in (1, 2):
            assert expected[fid] == pytest.approx(500.0)
            assert rates[fid] > 350.0
