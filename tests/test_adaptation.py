"""Unit tests for the slow-start + weighted-LIMD rate controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import INITIAL_RATE, Phase, RateController
from repro.core.config import CoreliteConfig
from repro.errors import ConfigurationError


def make(weight=1.0, **cfg_kwargs):
    cfg = CoreliteConfig(**cfg_kwargs)
    return RateController(cfg, weight=weight, start_time=0.0)


def test_starts_in_slow_start_at_initial_rate():
    c = make()
    assert c.phase is Phase.SLOW_START
    assert c.rate == INITIAL_RATE == 1.0


def test_doubles_every_interval_without_feedback():
    c = make()
    rates = []
    for t in range(1, 5):
        c.on_epoch(0, float(t))
        rates.append(c.rate)
    assert rates == [2.0, 4.0, 8.0, 16.0]


def test_no_double_before_interval_elapses():
    c = make()
    c.on_epoch(0, 0.3)
    c.on_epoch(0, 0.6)
    assert c.rate == 1.0


def test_slow_start_exits_on_first_feedback_with_halving():
    c = make()
    c.on_epoch(0, 1.0)  # 2.0
    c.on_epoch(0, 2.0)  # 4.0
    c.on_epoch(3, 2.5)
    assert c.phase is Phase.LINEAR
    assert c.rate == pytest.approx(2.0)
    assert c.slow_start_exits == 1


def test_slow_start_exit_at_normalized_threshold():
    """Doubling stops when rate/weight exceeds ss_thresh; rate halves back.

    This is the §4.2 behavior: every flow completes slow-start at a
    normalized rate of ss_thresh/2, i.e. near the weighted fair share.
    """
    c = make(weight=1.0)
    for t in range(1, 10):
        c.on_epoch(0, float(t))
        if c.phase is Phase.LINEAR:
            break
    assert c.rate == pytest.approx(32.0)
    assert c.phase is Phase.LINEAR


def test_slow_start_threshold_scales_with_weight():
    c = make(weight=4.0)
    for t in range(1, 12):
        c.on_epoch(0, float(t))
        if c.phase is Phase.LINEAR:
            break
    # exits when rate/4 > 32, i.e. at 256 -> halve to 128 = 4 * 32
    assert c.rate == pytest.approx(128.0)


def test_linear_increase_without_feedback():
    c = make()
    c.on_epoch(5, 1.0)  # exit slow start at 0.5
    base = c.rate
    c.on_epoch(0, 2.0)
    c.on_epoch(0, 3.0)
    assert c.rate == pytest.approx(base + 2.0)
    assert c.increases == 2


def test_decrease_proportional_to_feedback_count():
    c = make()
    c.on_epoch(1, 1.0)  # -> linear
    c.rate = 50.0
    c.on_epoch(4, 2.0)
    assert c.rate == pytest.approx(46.0)


def test_rate_never_negative():
    c = make()
    c.on_epoch(1, 1.0)
    c.rate = 2.0
    c.on_epoch(1000, 2.0)
    assert c.rate == 0.0


def test_min_rate_contract_floor():
    cfg = CoreliteConfig()
    c = RateController(cfg, weight=1.0, min_rate=10.0)
    assert c.rate == 10.0  # starts at the contracted floor
    c.on_epoch(1, 1.0)  # exit slow start
    c.on_epoch(1000, 2.0)
    assert c.rate == 10.0  # never throttled below the contract


def test_max_rate_cap():
    c = make(max_rate=20.0)
    for t in range(1, 10):
        c.on_epoch(0, float(t))
    assert c.rate <= 20.0
    # Past slow start the linear increase stops at the cap too.
    c = make(max_rate=20.0)
    c.on_epoch(1, 1.0)
    assert c.phase is Phase.LINEAR
    for t in range(2, 200):
        c.on_epoch(0, float(t))
    assert c.rate == 20.0


def test_restart_returns_to_slow_start():
    c = make()
    c.on_epoch(1, 1.0)
    c.rate = 77.0
    c.restart(now=50.0)
    assert c.phase is Phase.SLOW_START
    assert c.rate == 1.0
    c.on_epoch(0, 50.5)
    assert c.rate == 1.0  # doubling interval restarts from the restart time
    c.on_epoch(0, 51.0)
    assert c.rate == 2.0


def test_negative_feedback_rejected():
    c = make()
    with pytest.raises(ConfigurationError):
        c.on_epoch(-1, 1.0)


def test_invalid_weight_rejected():
    with pytest.raises(ConfigurationError):
        make(weight=0.0)


def test_feedback_counter_accumulates():
    c = make()
    c.on_epoch(2, 1.0)
    c.on_epoch(3, 2.0)
    assert c.feedback_total == 5


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=200),
    st.floats(0.5, 8.0),
)
@settings(max_examples=50, deadline=None)
def test_rate_stays_in_bounds_under_any_feedback(feedback_seq, weight):
    cfg = CoreliteConfig(max_rate=500.0)
    c = RateController(cfg, weight=weight)
    t = 0.0
    for m in feedback_seq:
        t += cfg.edge_epoch
        c.on_epoch(m, t)
        assert cfg.min_rate <= c.rate <= cfg.max_rate


@given(st.floats(1.0, 8.0))
@settings(max_examples=25, deadline=None)
def test_decrease_is_effectively_multiplicative(weight):
    """With feedback proportional to bg/w (the core's guarantee), the
    per-epoch decrease is a fixed *fraction* of the rate — Chiu-Jain
    multiplicative decrease."""
    cfg = CoreliteConfig()
    c = RateController(cfg, weight=weight)
    c.on_epoch(1, 1.0)  # exit slow start
    k = 0.05  # feedback markers per unit normalized rate
    c.rate = 100.0
    before = c.rate
    m = int(round(k * c.rate / weight * 10))
    c.on_epoch(m, 2.0)
    drop_fraction = (before - c.rate) / before
    expected_fraction = cfg.beta * m / before
    assert drop_fraction == pytest.approx(expected_fraction)
