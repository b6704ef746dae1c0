"""Unit tests for FIFO queues and occupancy averaging."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, QueueStats


def data(seq=0):
    return Packet.data(1, "A", "B", seq=seq, now=0.0)


def marker():
    return Packet.marker(1, "A", "B", label=1.0, now=0.0)


def test_fifo_order():
    q = DropTailQueue(10)
    packets = [data(i) for i in range(3)]
    for p in packets:
        assert q.push(p, 0.0)
    assert [q.pop(0.0).seq for _ in range(3)] == [0, 1, 2]


def test_pop_empty_returns_none():
    q = DropTailQueue(10)
    assert q.pop(0.0) is None


def test_capacity_enforced():
    q = DropTailQueue(2)
    assert q.push(data(0), 0.0)
    assert q.push(data(1), 0.0)
    assert not q.push(data(2), 0.0)
    assert q.stats.dropped_data == 1
    assert q.occupancy == 2.0


def test_markers_do_not_consume_capacity():
    q = DropTailQueue(1)
    assert q.push(data(0), 0.0)
    for _ in range(5):
        assert q.push(marker(), 0.0)
    assert q.occupancy == 1.0
    assert len(q) == 6


def test_markers_keep_fifo_position():
    q = DropTailQueue(10)
    q.push(data(0), 0.0)
    q.push(marker(), 0.0)
    q.push(data(1), 0.0)
    kinds = [q.pop(0.0).kind.name for _ in range(3)]
    assert kinds == ["DATA", "MARKER", "DATA"]


def test_occupancy_decreases_on_pop():
    q = DropTailQueue(10)
    q.push(data(0), 0.0)
    q.push(data(1), 0.0)
    q.pop(0.0)
    assert q.occupancy == 1.0


def test_stats_counters():
    q = DropTailQueue(1)
    q.push(data(0), 0.0)
    q.push(data(1), 0.0)  # dropped
    q.pop(0.0)
    q.push(marker(), 0.0)
    assert q.stats == QueueStats(dropped_data=1)  # a queue counts only its drops


def test_invalid_capacity_rejected():
    with pytest.raises(ConfigurationError):
        DropTailQueue(0)
    with pytest.raises(ConfigurationError):
        DropTailQueue(-3)


class TestTimeAverage:
    def test_empty_queue_average_is_zero(self):
        q = DropTailQueue(10)
        q.reset_window(0.0)
        assert q.time_average(1.0) == 0.0

    def test_constant_occupancy(self):
        q = DropTailQueue(10)
        q.reset_window(0.0)
        q.push(data(0), 0.0)
        q.push(data(1), 0.0)
        assert q.time_average(2.0) == pytest.approx(2.0)

    def test_step_occupancy_integrates(self):
        q = DropTailQueue(10)
        q.reset_window(0.0)
        q.push(data(0), 0.0)  # occupancy 1 during [0, 1)
        q.push(data(1), 1.0)  # occupancy 2 during [1, 2)
        # integral = 1*1 + 2*1 = 3 over span 2
        assert q.time_average(2.0) == pytest.approx(1.5)

    def test_pop_lowers_average(self):
        q = DropTailQueue(10)
        q.reset_window(0.0)
        q.push(data(0), 0.0)
        q.pop(1.0)  # occupancy 1 during [0,1), 0 during [1,2)
        assert q.time_average(2.0) == pytest.approx(0.5)

    def test_reset_window_starts_fresh(self):
        q = DropTailQueue(10)
        q.reset_window(0.0)
        q.push(data(0), 0.0)
        assert q.time_average(1.0) == pytest.approx(1.0)
        q.reset_window(1.0)
        q.pop(1.0)
        assert q.time_average(2.0) == pytest.approx(0.0)

    def test_markers_do_not_affect_average(self):
        q = DropTailQueue(10)
        q.reset_window(0.0)
        for _ in range(4):
            q.push(marker(), 0.0)
        assert q.time_average(1.0) == 0.0

    def test_average_at_window_start_is_current_occupancy(self):
        q = DropTailQueue(10)
        q.push(data(0), 0.0)
        q.reset_window(1.0)
        assert q.time_average(1.0) == pytest.approx(1.0)
