"""Unit and property tests for marker injection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marking import MarkerInjector
from repro.errors import ConfigurationError


def test_interval_one_marks_every_packet():
    inj = MarkerInjector(1.0)
    assert [inj.on_data() for _ in range(5)] == [1] * 5


def test_interval_two_marks_every_other_packet():
    inj = MarkerInjector(2.0)
    assert [inj.on_data() for _ in range(6)] == [0, 1, 0, 1, 0, 1]


def test_sub_unit_interval_emits_multiple_markers_per_packet():
    inj = MarkerInjector(0.5)
    assert inj.on_data() == 2


def test_fractional_interval_long_run_ratio():
    inj = MarkerInjector(2.5)
    n = 1000
    marks = sum(inj.on_data() for _ in range(n))
    assert marks == pytest.approx(n / 2.5, abs=1)


def test_counters():
    """Ten packets owe five markers, each counted once, and leave no
    credit; a train of ten owes the same."""
    inj = MarkerInjector(2.0)
    assert [inj.on_data() for _ in range(10)] == [0, 1] * 5
    assert inj.markers_emitted == 5 and inj._credit == 0.0
    train = MarkerInjector(2.0)
    assert train.on_train(10) == 5
    assert train.markers_emitted == 5 and train._credit == 0.0


def test_reset_clears_credit():
    inj = MarkerInjector(2.0)
    inj.on_data()  # credit 1
    inj.reset()
    assert inj.on_data() == 0  # credit back to 1, not 2


def test_invalid_interval():
    with pytest.raises(ConfigurationError):
        MarkerInjector(0.0)
    with pytest.raises(ConfigurationError):
        MarkerInjector(-1.0)


def test_byte_mode_sizes_accumulate():
    """The paper's "(or bytes)" marking: credit accrues by size, so two
    half-size packets earn exactly one marker at Nw = 1."""
    inj = MarkerInjector(1.0)
    assert inj.on_data(0.5) == 0
    assert inj.on_data(0.5) == 1
    # a jumbo packet can earn several markers at once
    assert inj.on_data(3.0) == 3


def test_negative_size_rejected():
    inj = MarkerInjector(1.0)
    with pytest.raises(ConfigurationError):
        inj.on_data(-1.0)


@given(st.floats(0.5, 20.0), st.integers(100, 2000))
@settings(max_examples=50, deadline=None)
def test_marker_rate_is_inverse_interval(interval, packets):
    """The long-run marker/data ratio is exactly 1/Nw, the property the
    whole Corelite feedback design relies on."""
    inj = MarkerInjector(interval)
    marks = sum(inj.on_data() for _ in range(packets))
    assert abs(marks - packets / interval) <= 1.0


@given(st.floats(1.0, 20.0))
@settings(max_examples=30, deadline=None)
def test_markers_never_burst(interval):
    """For Nw >= 1 the markers are evenly spread: gaps between markers
    differ by at most one packet (no bursts, no droughts)."""
    inj = MarkerInjector(interval)
    gaps = []
    since = 0
    for _ in range(500):
        since += 1
        if inj.on_data():
            gaps.append(since)
            since = 0
    if len(gaps) >= 3:
        interior = gaps[1:]
        assert max(interior) - min(interior) <= 1
