"""Tests for token-bucket burst shaping and shaper parking."""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.core.shaping import PacedSender
from repro.errors import ConfigurationError
from repro.core.config import CoreliteConfig
from repro.sim.engine import Simulator
from repro.sim.sources import onoff_source


class TestTokenBucket:
    def make(self, rate=10.0, burst=1.0, backlog=None):
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

        sender = PacedSender(sim, rate, emit, burst=burst)
        return sim, sender, times, state

    def test_burst_one_is_pure_pacing(self):
        sim, sender, times, _ = self.make(rate=10.0, burst=1.0)
        sender.start()
        sim.run(until=0.35)
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_idle_flow_accumulates_burst_credit(self):
        sim, sender, times, state = self.make(rate=10.0, burst=4.0, backlog=0)
        sender.start()
        sim.run(until=2.0)  # parks immediately; credit accrues to 4
        assert times == []
        assert sender.idle_parks >= 1
        state["backlog"] = 6
        sender.kick()
        sim.run(until=2.0 + 1e-6)
        # the burst goes out back-to-back at t=2.0...
        assert len(times) == 4
        sim.run(until=2.25)
        # ...then the shaper settles at the paced rate for the rest.
        assert len(times) == 6

    def test_burst_capped_by_bucket_depth(self):
        sim, sender, times, state = self.make(rate=10.0, burst=2.0, backlog=0)
        sender.start()
        sim.run(until=10.0)
        state["backlog"] = 10
        sender.kick()
        sim.run(until=10.0 + 1e-6)
        assert len(times) == 2  # not 10, however long the idle period

    def test_rate_decrease_revokes_credit(self):
        """A freshly throttled flow must not burst on credit earned at its
        old, higher rate."""
        sim, sender, times, _ = self.make(rate=100.0, burst=1.0)
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
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PacedSender(sim, 10.0, lambda: True, burst=0.5)

    def test_credit_reporting(self):
        sim, sender, times, state = self.make(rate=10.0, burst=3.0, backlog=0)
        sender.start()
        sim.run(until=0.25)
        assert sender.credit() == pytest.approx(min(3.0, 1.0 + 0.25 * 10.0), abs=0.2)


class TestBurstInTheNetwork:
    def test_bursty_source_benefits_from_shaper_burst(self):
        """An ON/OFF source behind a deeper token bucket clears its bursts
        faster (fewer deep backlogs) without hurting fairness."""

        def run(burst):
            net = CloudBuilder(
                TopologySpec.chain(2), "corelite", seed=0,
                config=CoreliteConfig(shaper_burst=burst),
            )
            net.add_flow(FlowSpec(flow_id=1, weight=1.0))
            net.add_flow(FlowSpec(
                flow_id=2, weight=1.0, source=onoff_source(300.0, 0.3, 0.9),
            ))
            res = net.run(until=60.0)
            return res

        paced = run(1.0)
        bursty = run(8.0)
        # both deliver the source's offered load...
        for res in (paced, bursty):
            tput = res.mean_throughputs((40.0, 60.0))
            assert tput[2] == pytest.approx(75.0, rel=0.35)
        # ...and the network stays essentially lossless either way.
        assert bursty.total_drops <= paced.total_drops + 50


def test_config_validates_burst():
    with pytest.raises(ConfigurationError):
        CoreliteConfig(shaper_burst=0.0)
