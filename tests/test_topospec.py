"""Unit tests for the declarative topology layer (specs, canned shapes,
JSON round trip, and the validation messages the DSL relies on)."""

import math

import pytest

from repro.errors import ConfigurationError, FlowError, TopologyError
from repro.experiments.topospec import (
    CANNED_TOPOLOGIES,
    FlowPathSpec,
    FlowSpec,
    LinkSpec,
    TopologySpec,
)
from repro.sim.engine import Simulator
from repro.sim.node import Router
from repro.sim.topology import Topology


class TestLinkSpec:
    def test_valid_link(self):
        link = LinkSpec("A", "B", 500.0, 0.02)
        assert link.queue_capacity is None
        assert link.as_row() == ["A", "B", 500.0, 0.02]

    def test_queue_override_round_trips(self):
        link = LinkSpec("A", "B", 500.0, 0.02, 80.0)
        assert link.as_row() == ["A", "B", 500.0, 0.02, 80.0]

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            LinkSpec("A", "A", 500.0, 0.02)

    def test_bad_capacity_named_in_error(self):
        with pytest.raises(TopologyError, match=r"capacity_pps.*-5"):
            LinkSpec("A", "B", -5.0, 0.02)
        with pytest.raises(TopologyError, match="capacity_pps"):
            LinkSpec("A", "B", 0.0, 0.02)
        with pytest.raises(TopologyError, match="capacity_pps"):
            LinkSpec("A", "B", math.nan, 0.02)
        with pytest.raises(TopologyError, match="capacity_pps"):
            LinkSpec("A", "B", math.inf, 0.02)

    def test_bad_delay_named_in_error(self):
        with pytest.raises(TopologyError, match=r"prop_delay.*-0.1"):
            LinkSpec("A", "B", 500.0, -0.1)
        with pytest.raises(TopologyError, match=r"prop_delay.*nan"):
            LinkSpec("A", "B", 500.0, math.nan)

    def test_empty_core_name_rejected(self):
        with pytest.raises(TopologyError, match="non-empty core name"):
            LinkSpec("", "B", 500.0, 0.02)


class TestTopologySpec:
    def test_cores_derived_from_links_in_first_seen_order(self):
        spec = TopologySpec(
            links=(LinkSpec("X", "Y", 100.0, 0.01), LinkSpec("Y", "Z", 100.0, 0.01))
        )
        assert spec.cores == ("X", "Y", "Z")
        assert spec.core_names == ("X", "Y", "Z")

    def test_explicit_cores_must_cover_link_endpoints(self):
        with pytest.raises(TopologyError, match=r"unknown core 'Z'"):
            TopologySpec(
                links=(LinkSpec("X", "Z", 100.0, 0.01),), cores=("X", "Y")
            )

    def test_duplicate_core_rejected(self):
        with pytest.raises(TopologyError, match="duplicate core"):
            TopologySpec(
                links=(LinkSpec("X", "Y", 100.0, 0.01),), cores=("X", "Y", "X")
            )

    def test_duplicate_link_rejected_either_direction(self):
        with pytest.raises(TopologyError, match="duplicate link"):
            TopologySpec(
                links=(
                    LinkSpec("X", "Y", 100.0, 0.01),
                    LinkSpec("Y", "X", 200.0, 0.01),
                )
            )

    def test_empty_links_rejected(self):
        with pytest.raises(TopologyError, match="at least one"):
            TopologySpec(links=())

    @pytest.mark.parametrize(
        "key, value",
        [
            ("access_capacity_pps", math.nan),
            ("access_capacity_pps", math.inf),
            ("access_prop_delay", math.nan),
            ("access_prop_delay", -0.01),
        ],
    )
    def test_bad_access_link_or_latency_named_in_error(self, key, value):
        with pytest.raises(TopologyError, match=key):
            TopologySpec.chain(2, **{key: value})

    def test_require_core_names_context_and_candidates(self):
        spec = TopologySpec.chain(3)
        with pytest.raises(TopologyError, match=r"flow 7.*'C9'.*C1"):
            spec.require_core("C9", "flow 7")

    def test_chain_shape(self):
        spec = TopologySpec.chain(4, capacity_pps=250.0)
        assert spec.cores == ("C1", "C2", "C3", "C4")
        assert [link.as_row()[:3] for link in spec.links] == [
            ["C1", "C2", 250.0],
            ["C2", "C3", 250.0],
            ["C3", "C4", 250.0],
        ]
        with pytest.raises(TopologyError, match="num_cores"):
            TopologySpec.chain(1)

    def test_parking_lot_is_a_named_chain(self):
        spec = TopologySpec.parking_lot(3)
        assert spec.name == "parking-lot-3"
        assert spec.cores == ("C1", "C2", "C3", "C4")
        with pytest.raises(TopologyError, match="hops"):
            TopologySpec.parking_lot(0)

    def test_mesh_shape_and_heterogeneous_capacities(self):
        spec = TopologySpec.mesh(capacity_pps=500.0)
        assert spec.cores == ("A", "B", "C", "D")
        caps = {frozenset((l.a, l.b)): l.capacity_pps for l in spec.links}
        assert caps[frozenset(("A", "B"))] == 625.0
        assert caps[frozenset(("A", "C"))] == 500.0
        assert caps[frozenset(("B", "C"))] == 375.0

    def test_from_core_links_legacy_rows(self):
        """Custom ``links`` rows, with and without a buffer override, are
        read by the one typed reader."""
        spec = TopologySpec.from_dict(
            {"links": [["H", "A", 500, 0.02], ["H", "B", 250, 0.03, 80]]}
        )
        assert spec.cores == ("H", "A", "B")
        assert spec.links == (
            LinkSpec("H", "A", 500.0, 0.02),
            LinkSpec("H", "B", 250.0, 0.03, 80.0),
        )
        with pytest.raises(TopologyError, match="at least one"):
            TopologySpec.from_dict({"links": []})
        with pytest.raises(ConfigurationError, match="4 or 5 elements"):
            TopologySpec.from_dict({"links": [["A", "B", 500]]})


class TestJsonRoundTrip:
    def test_canned_kinds(self):
        for kind in CANNED_TOPOLOGIES:
            spec = TopologySpec.from_dict({"kind": kind})
            assert spec.links

    def test_chain_with_knobs(self):
        spec = TopologySpec.from_dict(
            {"kind": "chain", "num_cores": 3, "capacity_pps": 250}
        )
        assert spec.cores == ("C1", "C2", "C3")
        assert spec.links[0].capacity_pps == 250.0

    def test_custom_links(self):
        spec = TopologySpec.from_dict(
            {"kind": "custom", "links": [["A", "B", 500, 0.02]], "name": "tiny"}
        )
        assert spec.name == "tiny"
        assert spec.cores == ("A", "B")

    def test_custom_needs_links(self):
        with pytest.raises(TopologyError, match="'links'"):
            TopologySpec.from_dict({"kind": "custom"})

    def test_unknown_kind_and_keys_rejected(self):
        with pytest.raises(TopologyError, match="unknown kind"):
            TopologySpec.from_dict({"kind": "torus"})
        with pytest.raises(TopologyError, match=r"unknown keys \['hops_'\]"):
            TopologySpec.from_dict({"kind": "parking_lot", "hops_": 3})

    def test_to_dict_from_dict_round_trip(self):
        for original in (
            TopologySpec.mesh(),
            TopologySpec.chain(3),
            TopologySpec(links=(LinkSpec("A", "B", 500.0, 0.02, 60.0),)),
        ):
            rebuilt = TopologySpec.from_dict(original.to_dict())
            assert rebuilt.cores == original.cores
            assert [l.as_row() for l in rebuilt.links] == [
                l.as_row() for l in original.links
            ]
            assert rebuilt.queue_capacity == original.queue_capacity


class TestFlowPathSpec:
    def test_alias_is_the_same_class(self):
        assert FlowSpec is FlowPathSpec

    def test_demand_defaults_to_infinite_backlog(self):
        spec = FlowPathSpec(flow_id=1)
        assert spec.backlogged
        assert spec.demand() == math.inf

    def test_demand_follows_source(self):
        from repro.sim.sources import poisson_source

        spec = FlowPathSpec(flow_id=1, source=poisson_source(60.0))
        assert spec.demand() == pytest.approx(60.0)

    def test_errors_name_flow_and_value(self):
        with pytest.raises(FlowError, match=r"flow 9.*weight.*-2"):
            FlowPathSpec(flow_id=9, weight=-2.0)
        with pytest.raises(FlowError, match=r"flow 9.*both are 'C1'"):
            FlowPathSpec(flow_id=9, ingress_core="C1", egress_core="C1")
        with pytest.raises(FlowError, match=r"flow 9.*transport 'udp'"):
            FlowPathSpec(flow_id=9, transport="udp")
        # Non-finite values and overlapping or unordered periods: JSON
        # ``NaN`` / ``Infinity`` parse as numbers.
        for kw, shown in [
            ({"weight": math.nan}, r"weight.*nan"),
            ({"weight": math.inf}, r"weight.*inf"),
            ({"min_rate": math.nan}, r"min_rate.*nan"),
            ({"schedule": ((math.nan, 4.0),)}, r"period \(nan, 4.0\)"),
            ({"schedule": ((0.0, 4.0), (2.0, 5.0))}, r"period \(2.0, 5.0\)"),
            ({"schedule": ((5.0, 9.0), (1.0, 4.0))}, r"period \(1.0, 4.0\)"),
            ({"schedule": ((0.0, math.inf), (5.0, 9.0))}, r"period \(5.0, 9.0\)"),
        ]:
            with pytest.raises(FlowError, match=rf"flow 9.*{shown}"):
                FlowPathSpec(flow_id=9, **kw)
        assert FlowPathSpec(flow_id=9, schedule=((0.0, 4.0), (4.0, 8.0))).schedule

    @pytest.mark.parametrize("aggregate", [2.5, math.nan, True])
    def test_aggregate_must_be_a_positive_integer(self, aggregate):
        """A bucket has a whole number of members: 2.5 used to build a
        2.5-member bucket and NaN to fail later, naming an access link."""
        with pytest.raises(FlowError, match=rf"flow 9: aggregate.*{aggregate!r}"):
            FlowPathSpec(flow_id=9, aggregate=aggregate)


class TestTopologyLinkValidation:
    """The runtime Topology now rejects nonsense links by field name."""

    def _topo(self):
        sim = Simulator()
        topo = Topology(sim)
        topo.add_node(Router("A"))
        topo.add_node(Router("B"))
        return topo

    def test_non_positive_bandwidth_rejected(self):
        topo = self._topo()
        with pytest.raises(TopologyError, match=r"bandwidth_pps.*0"):
            topo.add_link("A", "B", 0.0, 0.01)
        with pytest.raises(TopologyError, match=r"bandwidth_pps.*-1"):
            topo.add_link("A", "B", -1.0, 0.01)

    def test_negative_delay_rejected(self):
        topo = self._topo()
        with pytest.raises(TopologyError, match=r"prop_delay.*-0.01"):
            topo.add_link("A", "B", 500.0, -0.01)
        with pytest.raises(TopologyError, match=r"prop_delay.*nan"):
            topo.add_link("A", "B", 500.0, math.nan)
