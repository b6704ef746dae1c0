"""Unit tests for fairness and convergence metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fairness.metrics import (
    convergence_time,
    jain_index,
    mean_absolute_error,
    weighted_jain_index,
)
from repro.sim.monitor import Series


class TestJain:
    def test_equal_rates_score_one(self):
        assert jain_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jain_index([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([-1.0, 1.0])

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, rates):
        idx = jain_index(rates)
        assert 1.0 / len(rates) - 1e-9 <= idx <= 1.0 + 1e-9


class TestWeightedJain:
    def test_weighted_fair_allocation_scores_one(self):
        # rates exactly proportional to weights
        assert weighted_jain_index([10.0, 20.0, 30.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_equal_rates_with_unequal_weights_score_below_one(self):
        assert weighted_jain_index([10.0, 10.0], [1.0, 3.0]) < 0.9

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            weighted_jain_index([1.0], [1.0, 2.0])

    def test_non_positive_weight(self):
        with pytest.raises(ConfigurationError):
            weighted_jain_index([1.0], [0.0])


class TestErrors:
    def test_mean_absolute_error(self):
        assert mean_absolute_error({1: 10.0, 2: 20.0}, {1: 12.0, 2: 24.0}) == pytest.approx(3.0)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_error({1: 10.0}, {1: 10.0, 2: 5.0})



def ramp_series(settle_time=10.0, target=50.0, end=40.0):
    s = Series("r")
    t = 0.0
    while t <= end:
        value = min(target, target * t / settle_time)
        s.append(t, value)
        t += 1.0
    return s


class TestConvergence:
    def test_ramp_settles_within_tolerance(self):
        s = ramp_series()
        ct = convergence_time(s, target=50.0, tolerance=0.2, hold=5.0)
        # within 20% of 50 means >= 40, reached at t = 8
        assert ct == pytest.approx(8.0)

    def test_never_converges(self):
        s = Series("r")
        for t in range(20):
            s.append(float(t), 100.0 if t % 2 else 0.0)
        assert convergence_time(s, target=50.0, tolerance=0.1) is None

    def test_requires_hold_duration(self):
        s = ramp_series(end=9.0)  # settles at 8 but only 1 s of evidence
        assert convergence_time(s, target=50.0, tolerance=0.2, hold=5.0) is None

    def test_excursion_resets(self):
        s = Series("r")
        for t in range(30):
            v = 50.0 if t >= 5 else 0.0
            if t == 15:
                v = 0.0  # late excursion
            s.append(float(t), v)
        ct = convergence_time(s, target=50.0, tolerance=0.2, hold=5.0)
        assert ct == pytest.approx(16.0)

    def test_invalid_args(self):
        s = ramp_series()
        with pytest.raises(ConfigurationError):
            convergence_time(s, target=0.0)
        with pytest.raises(ConfigurationError):
            convergence_time(s, target=10.0, tolerance=0.0)

    def test_empty_series(self):
        assert convergence_time(Series("e"), target=10.0) is None
