"""Unit tests for the Corelite core router."""

import pytest

from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.core.router import CoreliteCoreRouter
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
    feedback = []
    cfg = CoreliteConfig()
    router = CoreliteCoreRouter("C1", sim, cfg, RngRegistry(0), send_feedback=feedback.append)
    sink = Sink("Eout")
    out = Link(sim, "C1->Eout", "C1", sink, 500.0, 0.0, DropTailQueue(40))
    router.set_route("Eout", out)
    return sim, cfg, router, out, sink, feedback


def marker(flow_id=1, label=10.0, origin="Ein1"):
    m = Packet.marker(flow_id, origin, "Eout", label=label, now=0.0)
    return m


def test_data_packets_are_forwarded(rig):
    sim, cfg, router, out, sink, feedback = rig
    router.receive(Packet.data(1, "Ein1", "Eout", 0, 0.0), link=None)
    sim.run()
    assert len(sink.packets) == 1


def test_markers_forwarded_and_observed(rig):
    sim, cfg, router, out, sink, feedback = rig
    machinery = router.enable_on_link(out)
    router.receive(marker(), link=None)
    sim.run(until=0.01)
    assert machinery.selector.markers_seen == 1
    assert any(p.kind == PacketKind.MARKER for p in sink.packets)


def test_markers_not_observed_without_enable(rig):
    sim, cfg, router, out, sink, feedback = rig
    router.receive(marker(), link=None)
    sim.run(until=0.01)
    assert router.machinery_for("C1->Eout") is None
    assert any(p.kind == PacketKind.MARKER for p in sink.packets)


def test_congestion_produces_feedback_to_origin_edge(rig):
    sim, cfg, router, out, sink, feedback = rig
    router.enable_on_link(out)
    # Stuff the queue well past qthresh and keep markers flowing.
    def pump():
        for i in range(30):
            router.receive(Packet.data(1, "Ein1", "Eout", i, sim.now), link=None)
        for _ in range(10):
            router.receive(marker(), link=None)
    for k in range(8):
        sim.schedule(k * 0.05, pump)
    sim.run(until=1.2)
    assert feedback, "no feedback despite persistent congestion"
    fb = feedback[0]
    assert fb.kind == PacketKind.FEEDBACK
    assert fb.dst == "Ein1"
    assert fb.feedback_from == "C1->Eout"
    assert router.feedback_emitted == len(feedback)


def test_no_feedback_without_congestion(rig):
    sim, cfg, router, out, sink, feedback = rig
    router.enable_on_link(out)
    for _ in range(5):
        router.receive(marker(), link=None)
    sim.run(until=1.0)
    assert feedback == []


def test_enable_requires_own_link(rig):
    sim, cfg, router, out, sink, feedback = rig
    foreign = Link(sim, "X->Y", "X", sink, 500.0, 0.0, DropTailQueue(40))
    with pytest.raises(ConfigurationError):
        router.enable_on_link(foreign)


def test_double_enable_rejected(rig):
    sim, cfg, router, out, sink, feedback = rig
    router.enable_on_link(out)
    with pytest.raises(ConfigurationError):
        router.enable_on_link(out)


def test_enabled_links_listing(rig):
    sim, cfg, router, out, sink, feedback = rig
    router.enable_on_link(out)
    assert router.enabled_links() == ("C1->Eout",)


def test_marker_cache_scheme_selected_by_config():
    from repro.core.cache_feedback import MarkerCacheFeedback

    sim = Simulator()
    cfg = CoreliteConfig(feedback_scheme=FeedbackScheme.MARKER_CACHE)
    router = CoreliteCoreRouter("C1", sim, cfg, RngRegistry(0), send_feedback=lambda p: None)
    sink = Sink("Eout")
    out = Link(sim, "C1->Eout", "C1", sink, 500.0, 0.0, DropTailQueue(40))
    router.set_route("Eout", out)
    machinery = router.enable_on_link(out)
    assert isinstance(machinery.selector, MarkerCacheFeedback)


def test_epoch_resets_queue_window(rig):
    sim, cfg, router, out, sink, feedback = rig
    machinery = router.enable_on_link(out)
    for i in range(20):
        router.receive(Packet.data(1, "Ein1", "Eout", i, 0.0), link=None)
    sim.run(until=0.35)
    # After a couple of epochs the recorded qavg reflects the draining queue.
    assert machinery.qavg_last >= 0.0
    assert out.queue.time_average(sim.now) <= 20.0


@pytest.mark.parametrize(
    "scheme, prefix",
    [(FeedbackScheme.SELECTIVE, "selective"), (FeedbackScheme.MARKER_CACHE, "cache")],
)
def test_selector_stream_is_taken_at_the_first_draw(scheme, prefix):
    """An uncongested link (every access link) never draws, so it never
    seeds a stream; a congested one draws from the stream of the same
    name — hence the same derived seed — an eager build would have."""
    sim = Simulator()
    feedback = []
    registry = RngRegistry(0)
    router = CoreliteCoreRouter(
        "C1", sim, CoreliteConfig(feedback_scheme=scheme), registry,
        send_feedback=feedback.append,
    )
    out = Link(sim, "C1->Eout", "C1", Sink("Eout"), 500.0, 0.0, DropTailQueue(40))
    router.set_route("Eout", out)
    machinery = router.enable_on_link(out)
    name = f"{prefix}:{out.name}"
    for _ in range(5):
        router.receive(marker(), link=None)
    sim.run(until=1.0)
    assert name not in registry and machinery.selector._rng is None
    assert f"epoch:{out.name}" in registry  # the phase draw is not lazy

    def pump():
        for i in range(30):
            router.receive(Packet.data(1, "Ein1", "Eout", i, sim.now), link=None)
        for _ in range(10):
            router.receive(marker(), link=None)

    for k in range(8):
        sim.schedule(k * 0.05, pump)
    sim.run(until=2.5)
    assert feedback
    assert machinery.selector._rng is registry.stream(name)
    # Same draws as a fresh stream of that name, advanced equally far.
    reference = RngRegistry(0).stream(name)
    draws = 0
    while reference.getstate() != machinery.selector._rng.getstate():
        reference.random()
        draws += 1
        assert draws < 10_000
