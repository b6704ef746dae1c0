"""Unit tests for series and throughput meters."""

import pytest

from repro.errors import SimulationError
from repro.sim.monitor import Series, ThroughputMeter


class TestSeries:
    def test_append_and_iterate(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(1.0, 2.0)
        assert list(s) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(s) == 2

    def test_non_monotonic_time_rejected(self):
        s = Series("x")
        s.append(1.0, 0.0)
        with pytest.raises(SimulationError):
            s.append(0.5, 0.0)

    def test_last(self):
        s = Series("x")
        s.append(1.0, 5.0)
        s.append(2.0, 6.0)
        assert s.last() == (2.0, 6.0)

    def test_last_empty_raises(self):
        with pytest.raises(SimulationError):
            Series("x").last()

    def test_window_selects_inclusive_range(self):
        s = Series("x")
        for t in range(5):
            s.append(float(t), float(t * 10))
        w = s.window(1.0, 3.0)
        assert list(w) == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]

    def test_window_empty(self):
        s = Series("x")
        s.append(0.0, 1.0)
        assert len(s.window(5.0, 6.0)) == 0

    def test_mean(self):
        s = Series("x")
        for t, v in [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0)]:
            s.append(t, v)
        assert s.mean() == pytest.approx(20.0)
        assert s.mean(1.0, 2.0) == pytest.approx(25.0)

    def test_mean_empty_window_raises(self):
        s = Series("x")
        s.append(0.0, 1.0)
        with pytest.raises(SimulationError):
            s.mean(5.0, 6.0)

    def test_value_at(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(2.0, 3.0)
        assert s.value_at(0.0) == 1.0
        assert s.value_at(1.9) == 1.0
        assert s.value_at(2.5) == 3.0
        with pytest.raises(SimulationError):
            s.value_at(-0.1)


class TestThroughputMeter:
    def test_rate_over_interval(self):
        m = ThroughputMeter()
        for _ in range(10):
            m.record()
        assert m.take_rate(2.0) == pytest.approx(5.0)

    def test_rate_resets_between_calls(self):
        m = ThroughputMeter()
        m.record(4)
        assert m.take_rate(1.0) == pytest.approx(4.0)
        assert m.take_rate(2.0) == pytest.approx(0.0)
        m.record(3)
        assert m.take_rate(3.0) == pytest.approx(3.0)

    def test_zero_elapsed_returns_zero(self):
        m = ThroughputMeter()
        m.record()
        assert m.take_rate(0.0) == 0.0

    def test_count_accumulates(self):
        m = ThroughputMeter()
        m.record(2)
        m.record(3)
        assert m.count == 5
