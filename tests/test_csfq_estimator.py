"""Unit and property tests for the CSFQ exponential rate estimator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sim.estimators import ExponentialRateEstimator


def test_constant_stream_converges_to_true_rate():
    est = ExponentialRateEstimator(k=0.1)
    t = 0.0
    for _ in range(200):
        t += 0.01  # 100 pkt/s
        est.update(t, 1.0)
    assert est.rate == pytest.approx(100.0, rel=0.02)


def test_formula_single_step():
    est = ExponentialRateEstimator(k=0.1, initial_rate=50.0)
    est.update(0.05, 1.0)
    w = math.exp(-0.05 / 0.1)
    assert est.rate == pytest.approx((1 - w) * (1.0 / 0.05) + w * 50.0)


def test_simultaneous_arrivals_accumulate():
    est = ExponentialRateEstimator(k=0.1)
    est.update(0.0, 1.0)  # gap 0 from start -> pending
    est.update(0.0, 1.0)  # still pending
    est.update(0.01, 1.0)
    w = math.exp(-0.01 / 0.1)
    assert est.rate == pytest.approx((1 - w) * (3.0 / 0.01))


def test_rate_decays_when_idle():
    est = ExponentialRateEstimator(k=0.1)
    t = 0.0
    for _ in range(100):
        t += 0.01
        est.update(t, 1.0)
    busy_rate = est.rate
    assert est.update(t + 1.0, 0.0) < busy_rate * 0.01


def test_restart_zeroes():
    est = ExponentialRateEstimator(k=0.1, initial_rate=10.0)
    est.restart(3.0)
    assert est.rate == 0.0
    est.update(3.05, 1.0)
    assert est.rate > 0


def test_time_backwards_rejected():
    est = ExponentialRateEstimator(k=0.1, start_time=1.0)
    with pytest.raises(SimulationError):
        est.update(0.5, 1.0)


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        ExponentialRateEstimator(k=0.0)
    with pytest.raises(ConfigurationError):
        ExponentialRateEstimator(k=0.1, initial_rate=-1.0)
    est = ExponentialRateEstimator(k=0.1)
    with pytest.raises(ConfigurationError):
        est.update(1.0, -1.0)


@given(st.floats(10.0, 1000.0), st.floats(0.02, 0.5))
@settings(max_examples=40, deadline=None)
def test_converges_within_a_few_k(true_rate, k):
    est = ExponentialRateEstimator(k=k)
    gap = 1.0 / true_rate
    t = 0.0
    # run for 10 K worth of packets
    for _ in range(int(10 * k / gap) + 10):
        t += gap
        est.update(t, 1.0)
    assert est.rate == pytest.approx(true_rate, rel=0.05)


@given(st.lists(st.tuples(st.floats(1e-4, 1.0), st.floats(0.0, 5.0)), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_rate_never_negative(arrivals):
    est = ExponentialRateEstimator(k=0.1)
    t = 0.0
    for gap, size in arrivals:
        t += gap
        est.update(t, size)
        assert est.rate >= 0.0
