"""Tests for delay tracking, standalone and end-to-end."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.errors import ConfigurationError
from repro.sim import delay as delay_module
from repro.sim.delay import DelayTracker


class TestDelayTracker:
    def test_running_statistics(self):
        t = DelayTracker()
        for d in (0.1, 0.2, 0.3):
            t.record(d)
        assert t.count == 3
        assert t.mean == pytest.approx(0.2)
        assert t.min == pytest.approx(0.1)
        assert t.max == pytest.approx(0.3)
        assert t.stdev == pytest.approx(0.0816, abs=0.001)

    def test_empty_summary(self):
        s = DelayTracker().summary()
        assert s["count"] == 0
        assert s["mean"] == 0.0
        assert s["p95"] is None

    def test_percentiles_from_reservoir(self):
        t = DelayTracker(reservoir=1000)
        for i in range(1000):
            t.record(i / 1000.0)
        assert t.percentile(0.5) == pytest.approx(0.5, abs=0.05)
        assert t.percentile(0.95) == pytest.approx(0.95, abs=0.05)

    def test_reservoir_stays_bounded_and_representative(self):
        t = DelayTracker(reservoir=100, seed=1)
        for i in range(10_000):
            t.record(i / 10_000.0)
        assert len(t._reservoir) == 100
        assert t.percentile(0.5) == pytest.approx(0.5, abs=0.15)

    def test_zero_reservoir_disables_percentiles(self):
        t = DelayTracker(reservoir=0)
        t.record(0.1)
        assert t.percentile(0.5) is None
        assert t.mean == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DelayTracker(reservoir=-1)
        t = DelayTracker()
        with pytest.raises(ConfigurationError):
            t.record(-0.1)
        with pytest.raises(ConfigurationError):
            t.percentile(1.5)


def _record_members(tracker, base, n, spacing):
    """Reference for ``record_train``: the per-member loop it replaced —
    member ``i`` (head first) left the last link ``(n - 1 - i) * spacing``
    before the tail, and each goes through ``record`` on its own."""
    for i in range(n):
        tracker.record(max(0.0, base - (n - 1 - i) * spacing))


def _state(tracker):
    return (tracker.count, tracker.min, tracker.max, tracker._reservoir)


class TestRecordTrainOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        reservoir=st.sampled_from([0, 1, 8, 512]),
        prior=st.lists(st.floats(0.0, 2.0), max_size=40),
        trains=st.lists(
            st.tuples(
                st.floats(0.0, 2.0),  # base
                st.integers(1, 64),  # n
                # spacing: none (no link), or 1 / bandwidth
                st.one_of(st.just(0.0), st.floats(50.0, 1e5).map(lambda bw: 1.0 / bw)),
            ),
            min_size=1,
            max_size=30,
        ),
        seed=st.integers(0, 3),
    )
    @example(reservoir=0, prior=[], trains=[(4.0936641984229974e-163, 15, 0.0)], seed=0)
    def test_train_equals_its_members_recorded_one_by_one(
        self, reservoir, prior, trains, seed
    ):
        # ``base`` below ``(n - 1) * spacing`` is generated too: that is
        # the negative-``lo`` path, where members clamp to 0 one by one.
        closed = DelayTracker(reservoir=reservoir, seed=seed)
        loop = DelayTracker(reservoir=reservoir, seed=seed)
        for sample in prior:
            closed.record(sample)
            loop.record(sample)
        for base, n, spacing in trains:
            closed.record_train(base, n, spacing)
            _record_members(loop, base, n, spacing)
            assert _state(closed) == _state(loop)
            assert closed.total == pytest.approx(loop.total, rel=1e-12, abs=0.0)
            # Squares of subnormal size round differently in closed form than
            # member by member (each member's square may underflow to 0.0 while
            # the closed form keeps 5e-324): allow one subnormal step per sample.
            assert closed.total_sq == pytest.approx(
                loop.total_sq, rel=1e-12, abs=closed.count * 2.0**-1074
            )
        # Interleaving keeps working: the sampler's position is shared.
        closed.record(0.25)
        loop.record(0.25)
        assert _state(closed) == _state(loop)

    def test_train_longer_than_the_reservoir_spans_fill_and_skip(self):
        closed = DelayTracker(reservoir=8, seed=2)
        loop = DelayTracker(reservoir=8, seed=2)
        for _ in range(50):
            closed.record_train(0.5, 64, 1e-3)
            _record_members(loop, 0.5, 64, 1e-3)
        assert _state(closed) == _state(loop)
        assert closed._reservoir != [0.5 - (63 - i) * 1e-3 for i in range(8)]

    def test_negative_lo_clamps_each_member(self):
        t = DelayTracker(reservoir=8)
        t.record_train(0.002, 4, 0.001)  # members -0.001, 0, 0.001, 0.002
        assert t.count == 4
        assert t.min == 0.0 and t.max == 0.002
        assert t._reservoir == [0.0, 0.0, 0.001, 0.002]

    def test_zero_spacing_records_identical_samples(self):
        t = DelayTracker(reservoir=4)
        t.record_train(0.3, 6, 0.0)
        assert (t.count, t.min, t.max) == (6, 0.3, 0.3)
        assert t.mean == pytest.approx(0.3)
        assert t.stdev == pytest.approx(0.0, abs=1e-9)
        assert t._reservoir == [0.3] * 4


class TestReservoirSampler:
    def test_every_decile_of_a_ramp_is_equally_represented(self):
        # Uniformity, pooled: 200 seeds x 100 slots over a 10,000-sample
        # ramp; each decile of the input should own a tenth of the slots.
        deciles = [0] * 10
        for seed in range(200):
            t = DelayTracker(reservoir=100, seed=seed)
            for i in range(10_000):
                t.record(i / 10_000.0)
            assert len(t._reservoir) == 100
            for sample in t._reservoir:
                deciles[int(sample * 10)] += 1
        assert sum(deciles) == 20_000
        for held in deciles:
            assert 0.08 * 20_000 <= held <= 0.12 * 20_000

    def test_same_seed_same_reservoir(self):
        def fill(seed):
            t = DelayTracker(reservoir=16, seed=seed)
            for i in range(2_000):
                t.record(i * 1e-3)
            return t._reservoir

        assert fill(5) == fill(5)
        assert fill(5) != fill(6)

    def test_draws_scale_with_the_log_of_the_sample_count(self):
        # Skip sampling draws 3 numbers per admitted sample and admits
        # ~k * ln(n / k) = 92 of these; Algorithm R drew 100,000 times.
        t = DelayTracker(reservoir=10, seed=0)
        for i in range(10):
            t.record(0.1)
        assert t._rng is None  # still filling: no generator seeded yet

        draws = [0]
        t.record(0.1)  # the first sample past the fill seeds it
        real = t._rng.random

        def counting():
            draws[0] += 1
            return real()

        t._rng = SimpleNamespace(random=counting)
        for i in range(100_000):
            t.record(0.1)
        assert 0 < draws[0] < 1_000

    def test_degenerate_draw_is_clamped(self, monkeypatch):
        # random() == 0.0 makes the first weight exactly 1, and
        # log(1 - W) would be log(0).
        class Zero:
            def __init__(self, seed):
                pass

            def random(self):
                return 0.0

        monkeypatch.setattr(delay_module, "random", SimpleNamespace(Random=Zero))
        t = DelayTracker(reservoir=4)
        for i in range(50):
            t.record(float(i))
        assert t.count == 50 and len(t._reservoir) == 4
        assert 0.0 < t._w < 1.0
        assert t._next >= 50
        # log(1 - 0.0) == 0 on every skip draw: each sample is admitted
        # (into slot int(0.0 * 4)), none skipped.
        assert t._reservoir == [49.0, 1.0, 2.0, 3.0]


class TestEndToEndDelay:
    def test_corelite_keeps_delay_near_qthresh_not_buffer(self):
        """Incipient-congestion feedback keeps the standing queue near
        qthresh (8 pkt), so one-way delay sits far below the
        full-buffer (40 pkt) worst case."""
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        for fid, weight in ((1, 1.0), (2, 1.0), (3, 2.0)):
            net.add_flow(FlowSpec(flow_id=fid, weight=weight))
        res = net.run(until=80.0)
        # propagation = 3 * 40 ms = 120 ms; full 40-pkt buffer would add
        # another 80 ms.  Expect mean delay well under that worst case.
        summary = res.flows[1].delay
        assert summary["count"] > 1000
        assert 0.120 <= summary["mean"] < 0.190
        assert summary["p95"] < 0.25

    def test_delay_scales_with_hop_count(self):
        net = CloudBuilder(TopologySpec.chain(3), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, ingress_core="C1", egress_core="C3"))
        net.add_flow(FlowSpec(flow_id=2, ingress_core="C1", egress_core="C2"))
        net.add_flow(FlowSpec(flow_id=3, ingress_core="C2", egress_core="C3"))
        res = net.run(until=60.0)
        long_path = res.flows[1].delay["mean"]
        short_path = res.flows[2].delay["mean"]
        assert long_path > short_path + 0.035  # one more 40 ms hop
