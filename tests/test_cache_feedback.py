"""Unit tests for the marker-cache feedback mechanism."""

import random
from collections import Counter

import pytest

from repro.core.cache_feedback import MarkerCacheFeedback
from repro.errors import ConfigurationError


def make(cache_size=32, seed=0):
    sent = []
    fb = MarkerCacheFeedback(
        cache_size, random.Random(seed), emit=lambda fid, edge, label: sent.append(fid)
    )
    return fb, sent


def test_cache_is_circular():
    fb, _ = make(cache_size=3)
    for i in range(5):
        fb.observe(i, f"E{i}", 1.0, 0.0)
    assert len(fb) == 3
    assert fb.flow_share(0) == 0.0  # evicted
    assert fb.flow_share(4) == pytest.approx(1 / 3)


def test_no_feedback_without_congestion():
    fb, sent = make()
    fb.observe(1, "E1", 1.0, 0.0)
    assert fb.on_epoch(0, 0.1) == 0
    assert sent == []


def test_empty_cache_sends_nothing():
    fb, sent = make()
    assert fb.on_epoch(5, 0.1) == 0
    assert sent == []


def test_sends_requested_count():
    fb, sent = make()
    for i in range(10):
        fb.observe(i % 2, f"E{i % 2}", 1.0, 0.0)
    assert fb.on_epoch(7, 0.1) == 7
    assert len(sent) == 7
    assert fb.feedback_sent == 7


def test_selection_proportional_to_cache_share():
    """The paper's Figure 2 claim: a flow with twice the normalized rate
    (twice the markers) receives about twice the feedback."""
    fb, sent = make(cache_size=300, seed=1)
    # flow 1: 200 markers, flow 2: 100 markers
    for i in range(300):
        flow = 1 if i % 3 != 2 else 2
        fb.observe(flow, f"E{flow}", 1.0, 0.0)
    fb.on_epoch(3000, 0.1)
    counts = Counter(sent)
    ratio = counts[1] / counts[2]
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_feedback_carries_origin_edge():
    sent = []
    fb = MarkerCacheFeedback(8, random.Random(0), emit=lambda f, e, l: sent.append((f, e, l)))
    fb.observe(9, "Ein9", 4.5, 0.0)
    fb.on_epoch(2, 0.1)
    assert sent == [(9, "Ein9", 4.5), (9, "Ein9", 4.5)]


def test_negative_count_rejected():
    fb, _ = make()
    with pytest.raises(ConfigurationError):
        fb.on_epoch(-1, 0.0)


def test_invalid_cache_size():
    with pytest.raises(ConfigurationError):
        MarkerCacheFeedback(0, random.Random(0), emit=lambda *a: None)


def test_markers_seen_counter():
    fb, _ = make(cache_size=2)
    for i in range(5):
        fb.observe(i, "E", 1.0, 0.0)
    assert fb.markers_seen == 5


def test_observe_count_is_that_many_single_observes():
    one, _ = make(cache_size=7)
    many, _ = make(cache_size=7)
    for i in range(6):
        many.observe(i, f"E{i}", float(i), 0.0, 5)
        for _ in range(5):
            one.observe(i, f"E{i}", float(i), 0.0)
    assert list(many._cache) == list(one._cache)
    assert many.markers_seen == one.markers_seen == 30
