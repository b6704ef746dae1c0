"""Unit and property tests for incipient congestion detection and Fn."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import congestion
from repro.core.config import CoreliteConfig
from repro.core.congestion import (
    LinearCongestionEstimator,
    Mm1CongestionEstimator,
    make_estimator,
)
from repro.errors import ConfigurationError


def make(fn_k=0.02, qthresh=8.0, core_epoch=0.1, service=500.0):
    cfg = CoreliteConfig(fn_k=fn_k, qthresh=qthresh, core_epoch=core_epoch)
    return Mm1CongestionEstimator(cfg, service_rate_pps=service)


def test_no_congestion_below_threshold():
    est = make()
    assert est.fn(0.0) == 0.0
    assert est.fn(7.9) == 0.0
    assert est.fn(8.0) == 0.0


def test_fn_formula_value():
    est = make(fn_k=0.0)
    qavg = 12.0
    mu = 500.0 * 0.1
    expected = mu * (qavg / 13.0 - 8.0 / 9.0)
    assert est.fn(qavg) == pytest.approx(expected)


def test_cubic_correction_term():
    base = make(fn_k=0.0).fn(20.0)
    corrected = make(fn_k=0.02).fn(20.0)
    assert corrected == pytest.approx(base + 0.02 * 12.0**3)


def test_mm1_term_saturates_but_cubic_does_not():
    """§3.1: the M/M/1 term saturates at mu; only k > 0 keeps marker
    production growing with the backlog."""
    flat = make(fn_k=0.0)
    assert flat.fn(1000.0) - flat.fn(100.0) < 1.0  # nearly saturated
    growing = make(fn_k=0.02)
    assert growing.fn(1000.0) > growing.fn(100.0) * 10
    assert growing.fn(200.0) > growing.fn(100.0) * 5


def test_negative_qavg_rejected():
    with pytest.raises(ConfigurationError):
        make().fn(-1.0)


def test_invalid_service_rate():
    with pytest.raises(ConfigurationError):
        Mm1CongestionEstimator(CoreliteConfig(), service_rate_pps=0.0)


class TestMarkersForEpoch:
    def test_zero_when_uncongested(self):
        est = make()
        assert est.markers_for_epoch(5.0) == 0
        assert est.congested_epochs == 0

    def test_fractional_carry_accumulates(self):
        est = make(fn_k=0.0)
        value = est.fn(9.0)
        assert 0.0 < value < 1.0
        total = sum(est.markers_for_epoch(9.0) for _ in range(100))
        assert total == pytest.approx(100 * value, abs=1.0)

    def test_carry_resets_when_congestion_clears(self):
        est = make(fn_k=0.0)
        est.markers_for_epoch(9.0)  # leaves a fractional carry
        est.markers_for_epoch(0.0)  # congestion gone -> carry cleared
        first_again = est.markers_for_epoch(9.0)
        assert first_again == 0  # fn(9) < 1 and carry was reset

    def test_counts_congested_epochs(self):
        est = make()
        est.markers_for_epoch(20.0)
        est.markers_for_epoch(20.0)
        est.markers_for_epoch(1.0)
        assert est.congested_epochs == 2


class TestPluggableEstimators:
    def test_factory_builds_by_name(self):
        cfg = CoreliteConfig(congestion_estimator="linear")
        est = make_estimator(cfg, 500.0)
        assert isinstance(est, LinearCongestionEstimator)
        est2 = make_estimator(CoreliteConfig(), 500.0)
        assert isinstance(est2, Mm1CongestionEstimator)

    def test_unknown_name_rejected_by_config(self):
        with pytest.raises(ConfigurationError):
            CoreliteConfig(congestion_estimator="psychic")

    def test_linear_formula(self, monkeypatch):
        monkeypatch.setattr(congestion, "LINEAR_GAIN", 2.0)
        cfg = CoreliteConfig(congestion_estimator="linear")
        est = LinearCongestionEstimator(cfg, 500.0)
        assert est.fn(8.0) == 0.0
        assert est.fn(13.0) == pytest.approx(10.0)

    def test_linear_shares_carry_machinery(self, monkeypatch):
        monkeypatch.setattr(congestion, "LINEAR_GAIN", 0.3)
        cfg = CoreliteConfig(congestion_estimator="linear")
        est = LinearCongestionEstimator(cfg, 500.0)
        total = sum(est.markers_for_epoch(9.0) for _ in range(100))
        assert total == pytest.approx(100 * 0.3, abs=1.0)


@given(st.floats(0.0, 500.0), st.floats(0.0, 500.0))
@settings(max_examples=80, deadline=None)
def test_fn_is_monotone_in_qavg(q1, q2):
    est = make()
    lo, hi = sorted((q1, q2))
    assert est.fn(lo) <= est.fn(hi) + 1e-9


@given(st.floats(0.0, 500.0))
@settings(max_examples=80, deadline=None)
def test_fn_is_non_negative(qavg):
    assert make().fn(qavg) >= 0.0


@given(st.floats(8.01, 400.0), st.floats(0.0, 0.2))
@settings(max_examples=60, deadline=None)
def test_fn_increases_with_k(qavg, k):
    assert make(fn_k=k).fn(qavg) >= make(fn_k=0.0).fn(qavg) - 1e-9
