"""Unit tests for the stateless selective feedback mechanism (§3.2)."""

import random
from collections import Counter

import pytest

from repro.core.selective_feedback import RAV_GAIN, WAV_GAIN, SelectiveFeedback
from repro.errors import ConfigurationError


class ForcedRandom(random.Random):
    """random() returns values from a queue (defaults to 0.5)."""

    def __init__(self, values=()):
        super().__init__(0)
        self.values = list(values)

    def random(self):
        if self.values:
            return self.values.pop(0)
        return 0.5


def make(rng=None):
    sent = []
    sel = SelectiveFeedback(
        rng if rng is not None else random.Random(0),
        emit=lambda fid, edge, label: sent.append((fid, edge, label)),
    )
    return sel, sent


def test_no_selection_while_uncongested():
    sel, sent = make()
    for i in range(100):
        sel.observe(1, "E1", 10.0, 0.0)
    assert sent == []
    assert sel.pw == 0.0


def test_rav_seeds_with_first_label_then_averages():
    sel, _ = make()
    sel.observe(1, "E", 10.0, 0.0)
    assert sel.rav == pytest.approx(10.0)
    sel.observe(1, "E", 20.0, 0.0)
    assert sel.rav == pytest.approx(10.0 + RAV_GAIN * 10.0)


def test_wav_tracks_markers_per_epoch():
    sel, _ = make()
    for _ in range(8):
        sel.observe(1, "E", 1.0, 0.0)
    sel.on_epoch(0, 0.1)
    assert sel.wav == pytest.approx(8.0)
    for _ in range(4):
        sel.observe(1, "E", 1.0, 0.2)
    sel.on_epoch(0, 0.2)
    assert sel.wav == pytest.approx(8.0 + WAV_GAIN * (4.0 - 8.0))


def test_pw_is_fn_over_wav():
    sel, _ = make()
    for _ in range(10):
        sel.observe(1, "E", 1.0, 0.0)
    sel.on_epoch(5, 0.1)
    assert sel.pw == pytest.approx(0.5)


def test_pw_capped_at_one():
    sel, _ = make()
    for _ in range(4):
        sel.observe(1, "E", 1.0, 0.0)
    sel.on_epoch(100, 0.1)
    assert sel.pw == 1.0


def test_case_a_selected_above_average_is_sent():
    rng = ForcedRandom([0.0])  # always select
    sel, sent = make(rng=rng)
    sel.observe(1, "E", 10.0, 0.0)
    sel.on_epoch(10, 0.1)  # arm pw
    sel.observe(2, "E2", 50.0, 0.2)  # label 50 > rav -> case (a)
    assert sent and sent[-1][0] == 2


def test_case_b_selected_below_average_increments_deficit():
    rng = ForcedRandom([0.0])
    sel, sent = make(rng=rng)
    for _ in range(5):
        sel.observe(1, "E", 100.0, 0.0)  # rav ~ 100
    sel.on_epoch(5, 0.1)
    sel.observe(2, "E2", 1.0, 0.2)  # selected but below average
    assert sent == []
    assert sel.deficit == 1


def test_case_c_deficit_swaps_to_above_average_marker():
    rng = ForcedRandom([0.0, 1.0])  # select first, don't select second
    sel, sent = make(rng=rng)
    for _ in range(5):
        sel.observe(1, "E", 100.0, 0.0)
    sel.on_epoch(5, 0.1)
    sel.observe(2, "E2", 1.0, 0.2)    # case (b): deficit = 1
    sel.observe(3, "E3", 500.0, 0.3)  # not selected, deficit>0, above avg
    assert [f for f, _, _ in sent] == [3]
    assert sel.deficit == 0
    assert sel.swaps == 1


def test_deficit_resets_at_epoch_boundary():
    rng = ForcedRandom([0.0])
    sel, _ = make(rng=rng)
    for _ in range(5):
        sel.observe(1, "E", 100.0, 0.0)
    sel.on_epoch(5, 0.1)
    sel.observe(2, "E2", 1.0, 0.2)
    assert sel.deficit == 1
    sel.on_epoch(5, 0.2)
    assert sel.deficit == 0


def test_below_average_flows_receive_no_feedback():
    """The §3.2 selling point: flows at or below their weighted fair share
    are never throttled."""
    sel, sent = make()
    # Two flows: flow 1 labels 30 (heavy), flow 2 labels 5 (light).
    for round_ in range(50):
        sel.observe(1, "E1", 30.0, round_ * 0.001)
        if round_ % 3 == 0:
            sel.observe(2, "E2", 5.0, round_ * 0.001)
    sel.on_epoch(20, 0.1)
    for round_ in range(50):
        sel.observe(1, "E1", 30.0, 0.1 + round_ * 0.001)
        if round_ % 3 == 0:
            sel.observe(2, "E2", 5.0, 0.1 + round_ * 0.001)
    recipients = {f for f, _, _ in sent}
    assert recipients == {1}


def test_negative_marker_count_rejected():
    sel, _ = make()
    with pytest.raises(ConfigurationError):
        sel.on_epoch(-1, 0.0)


def test_pw_zero_when_no_markers_requested():
    sel, _ = make()
    for _ in range(10):
        sel.observe(1, "E", 1.0, 0.0)
    sel.on_epoch(5, 0.1)
    assert sel.pw > 0
    sel.on_epoch(0, 0.2)
    assert sel.pw == 0.0


def test_expected_feedback_count_tracks_fn():
    """Over many epochs the number of echoes approximates Fn per epoch
    when enough above-average markers exist."""
    sel, sent = make()
    rng_labels = random.Random(42)
    epochs = 200
    fn = 4
    for e in range(epochs):
        for _ in range(20):
            # labels uniform 0..20 -> about half above the running average
            sel.observe(1, "E1", rng_labels.uniform(0, 20), e * 0.1)
        sel.on_epoch(fn, (e + 1) * 0.1)
    per_epoch = len(sent) / epochs
    assert per_epoch == pytest.approx(fn, rel=0.25)


@pytest.mark.parametrize("lazy", [False, True], ids=["stream", "lazy"])
@pytest.mark.parametrize("count", [1, 2, 8])
def test_observe_count_is_that_many_single_observes(count, lazy):
    """A train's markers go through one ``observe(..., count)`` call; the
    per-marker ``rav`` fold, coin order and deficit logic must leave the
    state ``count`` standalone markers would have left, after every call.
    ``lazy``: the stream is a callable taken at the first draw, which falls
    inside a ``count`` call (the first after ``pw`` is armed)."""

    def drive(batched):
        taken = []
        stream = random.Random(11)
        sel, sent = make(rng=(lambda: taken.append(sel.markers_seen) or stream) if lazy else stream)
        labels = random.Random(3)
        states = []
        for epoch in range(40):
            for _ in range(12):
                flow = labels.randrange(4)
                label = labels.uniform(0.0, 20.0)
                if batched:
                    sel.observe(flow, f"E{flow}", label, epoch * 0.1, count)
                else:
                    for _ in range(count):
                        sel.observe(flow, f"E{flow}", label, epoch * 0.1)
                states.append((
                    sel.rav, sel.wav, sel.pw, sel.deficit, sel.markers_seen,
                    sel._epoch_marker_count, sel.feedback_sent, sel.swaps, len(sent),
                ))
            sel.on_epoch(6, (epoch + 1) * 0.1)
        return sel, sent, states, taken

    one, sent_one, states_one, taken_one = drive(batched=False)
    many, sent_many, states_many, taken_many = drive(batched=True)
    for i, (got, want) in enumerate(zip(states_many, states_one)):
        assert got == want, f"call {i}"
    assert sent_many == sent_one and many.feedback_sent == one.feedback_sent > 0
    assert many.swaps == one.swaps > 0
    assert many.markers_seen == one.markers_seen == 40 * 12 * count
    assert many._rng.getstate() == one._rng.getstate()
    # Taken once, by the first call after epoch 0 (``markers_seen`` counts it in).
    assert (taken_many, taken_one) == (([13 * count], [12 * count + 1]) if lazy else ([], []))
