"""Tests for the declarative scenario DSL."""

import json
import math

import pytest

from repro.errors import ConfigurationError, FlowError, TopologyError
from repro.experiments.builder import Cloud
from repro.experiments.scenario_dsl import (
    build_network,
    load_scenario_file,
    run_scenario,
)


def basic_scenario(**overrides):
    scenario = {
        "scheme": "corelite",
        "seed": 1,
        "duration": 10.0,
        "flows": [
            {"id": 1, "weight": 1.0},
            {"id": 2, "weight": 2.0},
        ],
    }
    scenario.update(overrides)
    return scenario


class TestBuild:
    def test_default_corelite_two_cores(self):
        net = build_network(basic_scenario())
        assert isinstance(net, Cloud) and net.scheme == "corelite"
        assert net.core_names == ["C1", "C2"]
        assert set(net.flows) == {1, 2}
        assert net.seed == 1

    def test_scheme_selection(self):
        assert build_network(basic_scenario(scheme="csfq")).scheme == "csfq"
        assert build_network(basic_scenario(scheme="fifo")).scheme == "fifo"
        with pytest.raises(ConfigurationError):
            build_network(basic_scenario(scheme="quantum"))

    def test_network_parameters(self):
        net = build_network(basic_scenario(topology={"kind": "chain", "num_cores": 3,
                                                     "capacity_pps": 250.0}))
        assert net.core_names == ["C1", "C2", "C3"]
        assert net.topology.links["C1->C2"].bandwidth_pps == 250.0

    def test_core_links_graph(self):
        scenario = basic_scenario(
            topology={"links": [["H", "A", 500, 0.02], ["H", "B", 500, 0.02]]},
            flows=[{"id": 1, "ingress": "A", "egress": "B"}],
        )
        net = build_network(scenario)
        assert set(net.core_names) == {"H", "A", "B"}

    def test_config_fields(self):
        net = build_network(basic_scenario(config={"edge_epoch": 0.2, "qthresh": 4.0}))
        assert net.config.edge_epoch == 0.2
        assert net.config.qthresh == 4.0

    def test_feedback_scheme_by_name(self):
        net = build_network(basic_scenario(config={"feedback_scheme": "marker_cache"}))
        assert net.config.feedback_scheme.value == "marker_cache"

    def test_schedule_with_null_stop(self):
        scenario = basic_scenario(
            flows=[{"id": 1, "schedule": [[5, 20], [30, None]]}]
        )
        net = build_network(scenario)
        assert net.flows[1].schedule == ((5.0, 20.0), (30.0, math.inf))

    def test_sources_and_transport(self):
        scenario = basic_scenario(flows=[
            {"id": 1, "source": {"kind": "poisson", "mean_rate": 60}},
            {"id": 2, "source": {"kind": "onoff", "peak_rate": 300,
                                 "mean_on": 0.5, "mean_off": 1.0}},
            {"id": 3, "source": {"kind": "transfer", "total_packets": 100,
                                 "peak_rate": 50}},
            {"id": 4, "transport": "tcp"},
        ])
        net = build_network(scenario)
        assert net.flows[1].source.kind == "poisson"
        assert net.flows[3].source.total_packets == 100
        assert net.flows[4].transport == "tcp"

    def test_unknown_keys_rejected_everywhere(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            build_network(basic_scenario(tyop=1))
        with pytest.raises(ConfigurationError):
            build_network(basic_scenario(config={"cores": 3}))
        with pytest.raises(ConfigurationError):
            build_network(basic_scenario(flows=[{"id": 1, "wieght": 2}]))
        with pytest.raises(ConfigurationError):
            build_network(basic_scenario(
                flows=[{"id": 1, "source": {"kind": "poisson", "rate": 5}}]
            ))
        # Retired inputs: a scenario that still sets one dies, naming it,
        # before any cloud exists.
        monkeypatch.setattr(
            Cloud, "__init__", lambda *a, **k: pytest.fail("a cloud was built")
        )
        for overrides, error, names in (
            ({"control_loss_prob": 0.1}, ConfigurationError,
             r"unknown keys \['control_loss_prob'\]"),
            ({"topology": {"kind": "mesh", "reroute_latency": 0.5}}, TopologyError,
             r"unknown keys \['reroute_latency'\]"),
            ({"topology": {"kind": "star", "spokes": 3}}, TopologyError,
             r"unknown keys \['spokes'\]"),
            ({"topology": {"kind": "star"}}, TopologyError, r"unknown kind 'star'"),
            ({"flows": [{"id": 1, "micro_flows": [[1, {"kind": "backlogged"}]]}]},
             ConfigurationError, r"flow 1: unknown keys \['micro_flows'\]"),
            ({"config": {"shaper_burst": 4.0}}, ConfigurationError,
             r"config: unknown keys \['shaper_burst'\]"),
            ({"flows": [{"id": 1, "aggregate": 4,
                         "source": {"kind": "poisson", "mean_rate": 10}}]},
             FlowError, r"flow 1: an aggregate bucket is backlogged"),
        ):
            with pytest.raises(error, match=names):
                build_network(basic_scenario(**overrides))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"vectorized": "false"}, "vectorized"),  # bool("false") is True
            ({"train": 2.7}, "train"),  # int() would truncate to 2
            ({"train": "8"}, "train"),
            ({"train": True}, "train"),
            ({"train": 0}, "train"),
            ({"record_queues": "no"}, "record_queues"),
            ({"config": {"edge_epohc": 0.3}}, "edge_epohc"),
            ({"scheme": "csfq", "config": {"k1": 1.0}}, "k1"),
        ],
    )
    def test_mistyped_knobs_name_the_key(self, overrides, key):
        """JSON booleans / a JSON integer >= 1 / known config fields, or
        a ConfigurationError naming the key — raised before the topology
        is even parsed (the bogus one below would complain otherwise)."""
        scenario = basic_scenario(topology={"kind": "no-such-shape"}, **overrides)
        with pytest.raises(ConfigurationError, match=key):
            run_scenario(scenario)

    @pytest.mark.parametrize(
        "overrides, names",
        [
            ({"flows": [{"id": 1, "weight": "abc"}]}, r"flow 1: 'weight'.*'abc'"),
            ({"flows": [{"id": "x"}]}, r"'id'.*'x'"),
            ({"seed": "s"}, r"'seed'.*'s'"),
            ({"duration": "long"}, r"'duration'.*'long'"),
            ({"sample_interval": "x"}, r"'sample_interval'.*'x'"),
            ({"network": {"num_cores": 4}}, r"no 'network' section.*'topology'"),
            ({"config": {"alpha": "big"}}, r"config: 'alpha'.*'big'"),
            ({"flows": 5}, r"'flows'.*5"),
            ({"flows": [3]}, r"flows entry.*3"),
            ({"flows": [{"id": 1, "source": {"kind": "poisson"}}]}, r"missing 'mean_rate'"),
            ({"topology": {"links": [["A", "B", 500]]}}, r"'links' row.*500"),
            # A retired input is an unknown key.
            ({"flows": [{"id": 1, "micro_flows": [[7]]}]},
             r"flow 1: unknown keys \['micro_flows'\]"),
            # JSON NaN / Infinity parse as numbers.
            ({"flows": [{"id": 1, "source": {"kind": "poisson", "mean_rate": math.nan}}]},
             r"mean_rate.*nan"),
            ({"flows": [{"id": 1, "source": {"kind": "onoff", "peak_rate": 50,
                                             "mean_on": math.nan, "mean_off": 1}}]},
             r"mean_on.*nan"),
            ({"flows": [{"id": 1, "source": {"kind": "transfer", "total_packets": 9,
                                             "peak_rate": math.inf}}]},
             r"peak_rate.*inf"),
            ({"config": {"qthresh": math.nan}}, r"qthresh.*nan"),
            ({"config": {"fn_k": math.nan}}, r"fn_k.*nan"),
            ({"config": {"min_rate": math.nan}}, r"min_rate.*nan"),
            ({"config": {"shaper_burst": math.nan}}, r"config: unknown keys \['shaper_burst'\]"),
            ({"scheme": "csfq", "config": {"min_rate": math.nan}}, r"min_rate.*nan"),
            ({"scheme": "csfq", "config": {"shaper_burst": math.nan}},
             r"config: unknown keys \['shaper_burst'\]"),
            # The "topology" section goes through the same reader.
            ({"topology": {"kind": "chain", "num_cores": "3"}}, r"topology: 'num_cores'.*'3'"),
            ({"topology": {"kind": "chain", "num_cores": 2.9}}, r"topology: 'num_cores'.*2\.9"),
            ({"topology": {"kind": "parking_lot", "hops": "3"}}, r"topology: 'hops'.*'3'"),
            ({"topology": {"kind": "mesh", "access_prop_delay": "0.1"}},
             r"topology: 'access_prop_delay'.*'0\.1'"),
            ({"topology": {"kind": "mesh", "events": [
                {"time": "5", "kind": "link_down", "link": ["A", "B"]}]}},
             r"network event: 'time'.*'5'"),
            ({"topology": {"kind": "custom", "links": [["C1", "C2", "500", 0.02]]}},
             r"'links' row.*'500'"),
            ({"topology": {"kind": "chain", "capacity_pps": "fast"}},
             r"topology: 'capacity_pps'.*'fast'"),
            ({"topology": {"kind": "chain", "queue_capacity": "40"}},
             r"topology: 'queue_capacity'.*'40'"),
            # The buffer is the topology's: a config that names it is a typo.
            ({"config": {"queue_capacity": 20}}, r"config: unknown keys \['queue_capacity'\]"),
        ],
    )
    def test_malformed_values_die_before_the_build(self, overrides, names, monkeypatch):
        """Wrong-typed, missing or mis-shaped values (ValueError,
        TypeError, AttributeError and KeyError before the typed reader)
        are a ConfigurationError naming key and value, raised before any
        cloud is constructed."""
        monkeypatch.setattr(
            Cloud, "__init__", lambda *a, **k: pytest.fail("a cloud was built")
        )
        with pytest.raises(ConfigurationError, match=names):
            run_scenario(basic_scenario(**overrides))

    def test_nan_link_delay_dies_before_the_build(self, monkeypatch):
        """JSON ``NaN`` reads as a number; the spec refuses it before any
        cloud exists (it used to schedule into the past at t = 0.042)."""
        monkeypatch.setattr(
            Cloud, "__init__", lambda *a, **k: pytest.fail("a cloud was built")
        )
        with pytest.raises(TopologyError, match=r"prop_delay.*nan"):
            run_scenario(basic_scenario(
                topology={"kind": "chain", "prop_delay": json.loads("NaN")}
            ))

    def test_vectorized_flag_is_accepted_by_every_scheme(self):
        for scheme in ("corelite", "csfq", "fifo"):
            net = build_network(basic_scenario(scheme=scheme, vectorized=True))
            assert net.vectorized is True

    def test_no_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            build_network(basic_scenario(flows=[]))


class TestTopologyKey:
    def test_canned_parking_lot(self):
        net = build_network(basic_scenario(
            topology={"kind": "parking_lot", "hops": 3},
            flows=[
                {"id": 1, "weight": 2, "ingress": "C1", "egress": "C4"},
                {"id": 2, "ingress": "C1", "egress": "C2"},
            ],
        ))
        assert net.core_names == ["C1", "C2", "C3", "C4"]

    def test_custom_links(self):
        net = build_network(basic_scenario(
            topology={"kind": "custom",
                      "links": [["A", "B", 500, 0.02], ["B", "C", 250, 0.02]]},
            flows=[{"id": 1, "ingress": "A", "egress": "C"}],
        ))
        assert net.core_names == ["A", "B", "C"]
        assert net.topology.links["B->C"].bandwidth_pps == 250.0

    def test_network_section_names_topology(self):
        """The graph has one spelling: beside ``"topology"`` too, a
        ``"network"`` section is refused, pointing at ``"topology"``."""
        with pytest.raises(ConfigurationError, match="no 'network' section.*'topology'"):
            build_network(basic_scenario(topology={"kind": "mesh"}, network={"num_cores": 3}))

    def test_bad_topology_value_names_the_field(self):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError, match=r"capacity_pps.*-5"):
            build_network(basic_scenario(
                topology={"kind": "custom", "links": [["A", "B", -5, 0.02]]},
                flows=[{"id": 1, "ingress": "A", "egress": "B"}],
            ))

    def test_example_scenario_files_build(self):
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios")
        paths = sorted(glob.glob(os.path.join(root, "*.json")))
        assert len(paths) >= 5, paths
        for path in paths:
            net = build_network(load_scenario_file(path))
            assert net.flows, path


class TestRun:
    def test_end_to_end(self):
        result = run_scenario(basic_scenario(duration=20.0))
        assert result.scheme == "corelite"
        rates = result.mean_rates((15.0, 20.0))
        assert rates[2] > rates[1]

    def test_record_queues_flag(self):
        result = run_scenario(basic_scenario(duration=5.0, record_queues=True))
        assert "C1->C2" in result.queue_series

    def test_from_file_and_cli(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_scenario(duration=8.0)))
        assert load_scenario_file(str(path))["duration"] == 8.0

        from repro.cli import main

        assert main(["run", str(path), "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "corelite" in out

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_scenario_file(str(path))
