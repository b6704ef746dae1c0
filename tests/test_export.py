"""Tests for CSV/JSON export of run results."""

import csv

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.errors import ConfigurationError
from repro.experiments.report import save_series_csv
from repro.sim.monitor import Series


@pytest.fixture(scope="module")
def small_result():
    net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
    net.add_flow(FlowSpec(flow_id=1, weight=1.0))
    net.add_flow(FlowSpec(flow_id=2, weight=2.0, schedule=((0.0, 8.0),)))
    return net.run(until=10.0, record_queues=True)


class TestCsv:
    def test_round_trip(self, tmp_path):
        a = Series("a")
        b = Series("b")
        for t in range(5):
            a.append(float(t), t * 1.0)
        for t in range(0, 5, 2):
            b.append(float(t), t * 10.0)
        path = tmp_path / "out.csv"
        rows = save_series_csv(str(path), {"a": a, "b": b})
        assert rows == 5
        with open(path) as fh:
            reader = list(csv.reader(fh))
        assert reader[0] == ["time", "a", "b"]
        assert reader[1] == ["0", "0", "0"]
        assert reader[2][2] == ""  # b has no sample at t=1

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_series_csv(str(tmp_path / "x.csv"), {})

    def test_export_run_series(self, tmp_path, small_result):
        path = tmp_path / "rates.csv"
        series = {
            f"flow{fid}": small_result.flows[fid].rate_series
            for fid in small_result.flow_ids
        }
        rows = save_series_csv(str(path), series)
        assert rows == len(small_result.flows[1].rate_series)
