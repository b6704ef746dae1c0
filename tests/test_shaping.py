"""Unit tests for the paced sender."""

import pytest

from repro.core.shaping import PacedSender
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    times = []
    sender = PacedSender(sim, rate=10.0, emit=lambda: times.append(sim.now))
    return sim, sender, times


def test_first_packet_is_immediate(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.01)
    assert times == [0.0]


def test_emission_interval_matches_rate(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.55)
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])


def test_stop_halts_emissions(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.25)
    sender.stop()
    sim.run(until=1.0)
    assert len(times) == 3
    assert not sender.running


def test_rate_increase_takes_effect_quickly(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.05)
    sender.set_rate(100.0)
    sim.run(until=0.2)
    # next emission at last_emit (0.0) + 1/100 already past -> fires now,
    # then every 10 ms
    assert times[1] == pytest.approx(0.05)
    assert times[2] == pytest.approx(0.06)


def test_rate_decrease_delays_next_emission(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.05)
    sender.set_rate(2.0)  # next at 0.0 + 0.5
    sim.run(until=1.01)
    assert times == pytest.approx([0.0, 0.5, 1.0])


def test_zero_rate_goes_dormant_and_wakes(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.05)
    sender.set_rate(0.0)
    sim.run(until=5.0)
    assert times == [0.0]
    sender.set_rate(10.0)
    sim.run(until=5.2)
    assert len(times) >= 2


def test_restart_after_stop(rig):
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.05)
    sender.stop()
    sim.run(until=1.0)
    sender.start()
    sim.run(until=1.05)
    assert times[-1] == pytest.approx(1.0)


def test_negative_rate_rejected(rig):
    sim, sender, _ = rig
    with pytest.raises(ConfigurationError):
        sender.set_rate(-1.0)
    with pytest.raises(ConfigurationError):
        PacedSender(sim, rate=-5.0, emit=lambda: None)


def test_packets_sent_counter(rig):
    """Every send debits exactly one token: four sends by 0.35 s, and the
    credit is what accrued since the last one (an edge counts its sends as
    the ingress ``seq``; the shaper keeps no counter)."""
    sim, sender, times = rig
    sender.start()
    sim.run(until=0.35)
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert sender.credit() == pytest.approx(0.5)


def test_emit_may_stop_sender_mid_callback():
    sim = Simulator()
    times = []

    def emit():
        times.append(sim.now)
        if len(times) == 2:
            sender.stop()

    sender = PacedSender(sim, rate=10.0, emit=emit)
    sender.start()
    sim.run(until=2.0)
    assert len(times) == 2
