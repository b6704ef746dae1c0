"""The fused CSFQ core admission: what the contract table cannot see.

``CsfqCoreRouter.receive`` writes both rate estimators out against flat
``CsfqLinkState`` fields.  What it produces on whole clouds is pinned by the
contract table's CSFQ rows (``tests/contract``); here, its clock guard and
the FIFO scheme's bypass, and the branches no contract row reads:
congestion before the first uncongested window has closed, and the end of
a congestion.
"""

import random

import pytest

from repro.csfq.config import CsfqConfig
from repro.csfq.router import CsfqCoreRouter, CsfqLinkState
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


class _CountingRng(random.Random):
    """Stands in for the RngRegistry: one stream, draws counted."""
    draws = 0

    def stream(self, name):
        return self

    def random(self):
        self.draws += 1
        return super().random()


class _Sink:
    name = "Eout"
    receive = staticmethod(lambda packet, link: None)


class _Rig:
    """One router in front of a 100 pkt/s link with a 40-packet buffer."""

    def __init__(self, enable=True):
        self.sim = Simulator()
        self.rng = _CountingRng(7)
        self.router = CsfqCoreRouter("C1", self.sim, CsfqConfig(), self.rng)
        self.out = Link(self.sim, "C1->Eout", "C1", _Sink(), 100.0, 0.001, DropTailQueue(40))
        self.router.set_route("Eout", self.out)
        self.state = self.router.enable_on_link(self.out) if enable else None
        self.labels = []
        send = self.out.send

        def recording(packet, *at):  # ``send`` takes an optional instant
            self.labels.append(packet.label)
            return send(packet, *at)

        self.out.send = recording


def test_time_going_backwards_still_raises():
    rig = _Rig()
    rig.sim.run(until=1.0)
    rig.state.arrival_time = rig.state.accepted_time = 2.0
    with pytest.raises(SimulationError, match="backwards"):
        rig.router.receive(Packet.data(1, "Ein", "Eout", 0, 1.0, label=5.0), None)


def test_first_congestion_seeds_alpha_from_the_labels_seen():
    """Congestion before any uncongested window has closed seeds alpha with
    the largest label seen, the congesting packet's own included (no row of
    the contract table congests a CSFQ link that early)."""
    rig = _Rig()
    for seq in range(40):
        now, label = 0.003 * seq, 9.0 + seq  # 333 pkt/s into 100, labels rising
        rig.sim.run(until=now)
        rig.router.receive(Packet.data(1, "Ein", "Eout", seq, now, label=label), None)
        if rig.state.congested:
            break
    assert now < CsfqConfig().k_window and rig.state.overflow_drops == 0
    assert rig.state.alpha == label


def test_a_congested_link_below_capacity_again_opens_an_uncongested_window():
    """A congested link whose arrival rate falls below capacity leaves the
    congested state at that arrival: its window restarts there, and the
    labels seen before the congestion no longer count towards alpha."""
    rig = _Rig()
    rig.router.receive(Packet.data(1, "Ein", "Eout", 0, 0.0, label=50.0), None)
    for seq in range(1, 40):
        now = 0.003 * seq  # 333 pkt/s into 100
        rig.sim.run(until=now)
        rig.router.receive(Packet.data(1, "Ein", "Eout", seq, now, label=9.0), None)
        if rig.state.congested:
            break
    assert rig.state.congested and rig.state.tmp_alpha == 50.0
    now += 0.05
    rig.sim.run(until=now)
    rig.router.receive(Packet.data(1, "Ein", "Eout", 99, now, label=9.0), None)
    assert rig.state.arrival_rate < rig.state.capacity
    assert (rig.state.congested, rig.state.window_start, rig.state.tmp_alpha) == (False, now, 0.0)


def test_fifo_core_never_touches_link_state(monkeypatch):
    """A core with no CSFQ-enabled link (the FIFO scheme) only forwards: it
    builds no link state, runs no rate estimator, draws no coin and leaves
    every label as it came."""

    def estimating(x):
        raise AssertionError("a FIFO core ran a CSFQ rate estimator")

    monkeypatch.delattr(CsfqLinkState, "__init__")
    monkeypatch.setattr("repro.csfq.router.exp", estimating)
    rig = _Rig(enable=False)
    for seq in range(5):
        now = 0.01 * seq
        rig.sim.run(until=now)
        rig.router.receive(Packet.data(1, "Ein", "Eout", seq, now, label=50.0), None)
    assert rig.router.enabled_links() == () and rig.router.state_for(rig.out.name) is None
    assert not rig.out.epochless
    assert rig.labels == [50.0] * 5 and rig.rng.draws == 0
