"""Unit tests for the weighted CSFQ core router."""

import pytest

from repro.csfq.config import CsfqConfig
from repro.csfq.router import CsfqCoreRouter
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from repro.sim.rng import RngRegistry


class Sink:
    def __init__(self, name):
        self.name = name
        self.packets = []

    def receive(self, packet, link):
        self.packets.append(packet)


@pytest.fixture
def rig():
    sim = Simulator()
    cfg = CsfqConfig()
    router = CsfqCoreRouter("C1", sim, cfg, RngRegistry(0))
    sink = Sink("Eout")
    out = Link(sim, "C1->Eout", "C1", sink, 500.0, 0.0, DropTailQueue(40))
    router.set_route("Eout", out)
    state = router.enable_on_link(out)
    return sim, cfg, router, out, sink, state


def labeled(label, seq=0, flow=1):
    return Packet.data(flow, "Ein1", "Eout", seq=seq, now=0.0, label=label)


def test_cold_start_accepts_everything(rig):
    sim, cfg, router, out, sink, state = rig
    for i in range(10):
        router.receive(labeled(10.0, seq=i), link=None)
    sim.run()
    assert len(sink.packets) == 10
    assert state.prob_drops == 0


def test_enable_requires_own_link(rig):
    sim, cfg, router, out, sink, state = rig
    foreign = Link(sim, "X->Y", "X", sink, 500.0, 0.0, DropTailQueue(40))
    with pytest.raises(ConfigurationError):
        router.enable_on_link(foreign)


def test_double_enable_rejected(rig):
    sim, cfg, router, out, sink, state = rig
    with pytest.raises(ConfigurationError):
        router.enable_on_link(out)


def test_uncongested_alpha_tracks_max_label(rig):
    sim, cfg, router, out, sink, state = rig

    def send(label):
        router.receive(labeled(label, seq=send.seq), link=None)
        send.seq += 1
    send.seq = 0

    # Sparse, low-rate traffic: always uncongested; after Klink the alpha
    # becomes the max label of the window.
    t = 0.0
    for i in range(50):
        t += 0.02
        sim.schedule_at(t, send, 20.0 if i % 5 else 35.0)
    sim.run()
    assert state.congested is False
    assert state.alpha == pytest.approx(35.0, rel=0.01)


def test_congestion_flag_follows_arrival_estimate(rig):
    sim, cfg, router, out, sink, state = rig

    def blast():
        for i in range(40):
            router.receive(labeled(30.0, seq=blast.seq), link=None)
            blast.seq += 1
    blast.seq = 0
    for k in range(10):
        sim.schedule(k * 0.02, blast)  # 2000 pkt/s >> 500
    sim.run(until=0.5)
    assert state.congested is True


def test_drop_probability_targets_over_share_labels():
    # Dedicated rig with a deep buffer so the probabilistic filter is the
    # only thing dropping (overflow would also decay alpha).
    sim = Simulator()
    cfg = CsfqConfig()
    router = CsfqCoreRouter("C1", sim, cfg, RngRegistry(0))
    sink = Sink("Eout")
    out = Link(sim, "C1->Eout", "C1", sink, 10_000.0, 0.0, DropTailQueue(10_000))
    router.set_route("Eout", out)
    state = router.enable_on_link(out)
    state.alpha = 10.0
    n = 400
    for i in range(n):
        router.receive(labeled(5.0, seq=i, flow=1), link=None)  # below alpha
    for i in range(n):
        router.receive(labeled(40.0, seq=i, flow=2), link=None)  # 4x alpha
    sim.run()
    low = sum(1 for p in sink.packets if p.flow_id == 1)
    high = sum(1 for p in sink.packets if p.flow_id == 2)
    assert low == n  # label below fair share: never dropped by the filter
    # drop prob = 1 - 10/40 = 0.75 -> ~25% survive
    assert high / n == pytest.approx(0.25, abs=0.08)


def test_forwarded_packets_are_relabeled_to_alpha(rig):
    sim, cfg, router, out, sink, state = rig
    state.alpha = 10.0
    survivors = []
    for i in range(200):
        router.receive(labeled(40.0, seq=i), link=None)
    sim.run()
    for p in sink.packets:
        assert p.label <= 10.0 + 1e-9


def test_below_share_labels_not_relabeled(rig):
    sim, cfg, router, out, sink, state = rig
    state.alpha = 10.0
    router.receive(labeled(5.0), link=None)
    sim.run()
    assert sink.packets[0].label == 5.0


def test_buffer_overflow_decays_alpha(rig):
    sim, cfg, router, out, sink, state = rig
    state.alpha = 1000.0  # absurdly high: filter lets everything in
    for i in range(100):
        router.receive(labeled(5.0, seq=i), link=None)
    # queue capacity 40: overflows happened synchronously
    assert state.overflow_drops > 0
    assert state.alpha < 1000.0


def test_control_packets_bypass_csfq(rig):
    sim, cfg, router, out, sink, state = rig
    state.alpha = 0.001  # would drop any data packet
    state.congested = True
    m = Packet.marker(1, "Ein1", "Eout", label=100.0, now=0.0)
    router.receive(m, link=None)
    sim.run()
    assert any(p.kind == PacketKind.MARKER for p in sink.packets)


def test_zero_label_never_dropped(rig):
    sim, cfg, router, out, sink, state = rig
    state.alpha = 10.0
    router.receive(labeled(0.0), link=None)
    sim.run()
    assert len(sink.packets) == 1


def test_drop_coin_stream_is_bound_by_the_first_flip(rig):
    sim, cfg, router, out, sink, state = rig
    # No positive drop probability yet: no coin, and no stream seeded.
    for i in range(5):
        router.receive(labeled(10.0, seq=i), link=None)
    assert state.coin is None
    assert f"csfq:{out.name}" not in router._rng
    # The bound coin is the link's named stream, so draws are the ones a
    # per-flip lookup would have made.
    state.alpha = 10.0
    reference = RngRegistry(0).stream(f"csfq:{out.name}")
    expected = [reference.random() < 0.75 for _ in range(50)]
    before = state.prob_drops
    dropped = []
    for i in range(50):
        router.receive(labeled(40.0, seq=5 + i), link=None)
        dropped.append(state.prob_drops > before)
        before = state.prob_drops
        state.alpha = 10.0  # hold the drop probability at 1 - 10/40
    assert dropped == expected
    assert state.coin.__self__ is router._rng.stream(f"csfq:{out.name}")
