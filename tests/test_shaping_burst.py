"""Tests for the shaper's token bucket and shaper parking: one token deep
on the scalar path, a whole train deep in train mode."""

import pytest

from repro.core.shaping import PacedSender
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator


class TestTokenBucket:
    def make(self, rate=10.0, backlog=None):
        sim = Simulator()
        times = []
        state = {"backlog": backlog}

        def emit():
            if state["backlog"] is None:
                times.append(sim.now)
                return True
            if state["backlog"] <= 0:
                return False
            state["backlog"] -= 1
            times.append(sim.now)
            return True

        sender = PacedSender(sim, rate, emit)
        return sim, sender, times, state

    def test_burst_one_is_pure_pacing(self):
        sim, sender, times, _ = self.make(rate=10.0)
        sender.start()
        sim.run(until=0.35)
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_idle_flow_accumulates_burst_credit(self):
        """In train mode an idle flow's credit fills the batch-deep bucket,
        but waking from a park spends one token, as on the scalar path: a
        parked flow banks no burst."""
        sim = Simulator()
        sent = []
        state = {"backlog": 0}

        def train_emit(allowance):
            n = min(allowance, state["backlog"])
            state["backlog"] -= n
            sent.extend([sim.now] * n)
            return n

        sender = PacedSender(sim, 10.0, lambda: None, train_batch=4, train_emit=train_emit)
        sender.start()
        sim.run(until=2.0)  # parks immediately; credit accrues to 4
        assert sent == []
        assert sender.idle_parks >= 1
        assert sender.credit() == 4.0
        state["backlog"] = 6
        sender.kick()
        sim.run(until=2.0 + 1e-6)
        assert sent == [2.0]  # not a banked burst of 4
        sim.run(until=2.25)
        assert sent == pytest.approx([2.0, 2.1, 2.2])  # then paced

    def test_burst_capped_by_bucket_depth(self):
        sim, sender, times, state = self.make(rate=10.0, backlog=0)
        sender.start()
        sim.run(until=10.0)  # parks immediately; credit stays at one token
        assert times == []
        assert sender.idle_parks >= 1
        state["backlog"] = 10
        sender.kick()
        sim.run(until=10.0 + 1e-6)
        assert len(times) == 1  # not 10, however long the idle period
        sim.run(until=10.25)
        assert times == pytest.approx([10.0, 10.1, 10.2])  # then paced

    def test_rate_decrease_revokes_credit(self):
        """A freshly throttled flow must not burst on credit earned at its
        old, higher rate."""
        sim, sender, times, _ = self.make(rate=100.0)
        sender.start()
        sim.run(until=0.011)
        assert len(times) == 2  # t=0 and t=0.01
        sender.set_rate(2.0)
        sim.run(until=0.4)
        assert len(times) == 2  # next token at 0.01 + 0.5
        sim.run(until=0.52)
        assert len(times) == 3

    def test_an_emit_that_changes_the_rate_re_arms_at_the_new_rate(self):
        """The callback's ``set_rate`` arms a timer mid-firing; the firing
        re-arms in its place (``_schedule(..., reuse=...)``)."""
        sim, sender, times, _ = self.make(rate=10.0)
        emit = sender._emit
        sender._emit = lambda: emit() and (sender.set_rate(20.0) or True)
        sender.start()
        sim.run(until=0.12)
        assert times == pytest.approx([0.0, 0.05, 0.1])

    def test_invalid_burst(self):
        """The bucket is ``train_batch`` tokens deep: a depth that is not a
        whole number of packets >= 1, or a train depth without a train
        callback, is refused."""
        sim = Simulator()
        for batch in (0, 0.5, 2.5):
            with pytest.raises(ConfigurationError, match="positive integer"):
                PacedSender(sim, 10.0, lambda: True, train_batch=batch)
        with pytest.raises(ConfigurationError, match="train_emit"):
            PacedSender(sim, 10.0, lambda: True, train_batch=4)

    def test_credit_reporting(self):
        sim, sender, times, state = self.make(rate=10.0, backlog=0)
        sender.start()
        sim.run(until=0.25)
        assert sender.credit() == 1.0  # the bucket is one token deep
