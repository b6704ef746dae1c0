"""Unit tests for RunResult and FlowRecord."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import FlowRecord, RunResult
from repro.sim.monitor import Series


def make_record(fid, weight, schedule=((0.0, 100.0),), links=("L",), rates=None):
    rate_series = Series(f"rate:{fid}")
    tput = Series(f"tput:{fid}")
    cum = Series(f"cum:{fid}")
    for t, v in rates or []:
        rate_series.append(t, v)
        tput.append(t, v)
        cum.append(t, v * t)
    return FlowRecord(
        flow_id=fid,
        weight=weight,
        schedule=schedule,
        path_links=links,
        rate_series=rate_series,
        throughput_series=tput,
        cumulative_series=cum,
    )


@pytest.fixture
def result():
    flows = {
        1: make_record(1, 1.0, rates=[(t, 25.0) for t in range(10)]),
        2: make_record(2, 3.0, rates=[(t, 75.0) for t in range(10)]),
    }
    return RunResult(
        scheme="corelite",
        duration=10.0,
        capacities={"L": 100.0},
        flows=flows,
        total_drops=0,
        seed=0,
    )


def test_flow_ids_sorted(result):
    assert result.flow_ids == [1, 2]


def test_mean_rates(result):
    rates = result.mean_rates((0.0, 10.0))
    assert rates[1] == pytest.approx(25.0)
    assert rates[2] == pytest.approx(75.0)


def test_expected_rates_from_maxmin(result):
    expected = result.expected_rates(at_time=5.0)
    assert expected[1] == pytest.approx(25.0)
    assert expected[2] == pytest.approx(75.0)


def test_expected_rates_respect_schedule(result):
    result.flows[2].schedule = ((20.0, 30.0),)  # inactive at t=5
    expected = result.expected_rates(at_time=5.0)
    assert expected == {1: pytest.approx(100.0)}


def test_expected_rates_empty_when_nothing_active(result):
    assert result.expected_rates(at_time=500.0) == {}


def test_active_at(result):
    rec = result.flows[1]
    assert rec.active_at(0.0)
    assert rec.active_at(99.9)
    assert not rec.active_at(100.0)


def test_fairness_at_weighted(result):
    assert result.fairness_at((0.0, 10.0)) == pytest.approx(1.0)


def test_record_unknown_flow(result):
    with pytest.raises(ConfigurationError):
        result.record(99)


def test_totals(result):
    assert result.total_losses() == 0
    assert result.total_delivered() == 0
