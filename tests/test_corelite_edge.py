"""Unit tests for the Corelite edge router (ingress + egress roles)."""

import pytest

from repro.core.adaptation import INITIAL_RATE
from repro.core.config import CoreliteConfig
from repro.core.edge import CoreliteEdge, FlowAttachment
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from tests.edge_contract import (  # noqa: F401 - the cases both edges run
    EgressContract,
    test_an_aggregate_bucket_is_backlogged,
    test_duplicate_attach_rejected,
    test_flow_starts_stopped,
    test_stop_flow_stops_emission,
    test_unknown_flow_queries_rejected,
)


class Catcher:
    """A fake next-hop node recording what the edge forwards."""

    def __init__(self, sim):
        self.name = "CATCH"
        self.sim = sim
        self.packets = []

    def receive(self, packet, link):
        self.packets.append(packet)


@pytest.fixture
def rig():
    sim = Simulator()
    cfg = CoreliteConfig()
    edge = CoreliteEdge("Ein1", sim, cfg)
    catcher = Catcher(sim)
    link = Link(sim, "Ein1->C", "Ein1", catcher, 10_000.0, 0.0, DropTailQueue(1000))
    edge.set_route("Eout1", link)
    return sim, cfg, edge, catcher


@pytest.fixture(params=[1, 4], ids=["scalar", "train"])
def n(request):
    """Egress arrival sizes: scalar packets, and trains of four."""
    return request.param


def attach(edge, flow_id=1, weight=2.0, min_rate=0.0):
    edge.attach_flow(FlowAttachment(flow_id, weight, "Eout1", min_rate=min_rate))


def feedback(flow_id=1, source="C1->C2"):
    p = Packet(PacketKind.FEEDBACK, flow_id, src="C1", dst="Ein1", size=0.0)
    p.feedback_from = source
    return p


def test_started_flow_emits_data_and_markers(rig):
    sim, cfg, edge, catcher = rig
    attach(edge, weight=2.0)
    edge.start_flow(1)
    sim.run(until=2.0)
    assert {p.kind for p in catcher.packets} == {PacketKind.DATA}, "no data emitted"
    # A marker is a field of the data packet it is emitted with.
    markers = [p for p in catcher.packets if p.origin_edge is not None]
    # Nw = K1 * w = 2 -> one marker per two data packets.
    assert len(markers) == pytest.approx(len(catcher.packets) / 2, abs=1)
    assert all(p.label == 0.0 for p in catcher.packets if p.origin_edge is None)


def test_marker_labels_are_normalized_rate(rig):
    sim, cfg, edge, catcher = rig
    attach(edge, weight=2.0)
    edge.start_flow(1)
    sim.run(until=4.0)
    markers = [p for p in catcher.packets if p.origin_edge is not None]
    assert markers and all(p.kind == PacketKind.DATA for p in markers)
    # Every marker label is the rate/weight at its injection time; the most
    # recent one reflects a recent allotted rate (within one doubling).
    last = markers[-1]
    assert last.label == pytest.approx(edge.allotted_rate(1) / 2.0, rel=1.0)
    assert last.origin_edge == "Ein1"


def test_data_sequence_numbers_increase(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    edge.start_flow(1)
    sim.run(until=3.0)
    seqs = [p.seq for p in catcher.packets if p.kind == PacketKind.DATA]
    assert seqs == list(range(len(seqs)))


def test_feedback_causes_throttle(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    edge.start_flow(1)
    sim.run(until=2.0)
    rate_before = edge.allotted_rate(1)
    for _ in range(3):
        edge.receive_feedback(feedback())
    sim.run(until=2.0 + cfg.edge_epoch + 0.01)
    assert edge.allotted_rate(1) < rate_before


def test_max_feedback_across_core_links_not_sum(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    edge.start_flow(1)
    sim.run(until=2.0)
    # exit slow start first
    edge.receive_feedback(feedback(source="L1"))
    sim.run(until=2.0 + cfg.edge_epoch)
    rate0 = edge.allotted_rate(1)
    # 2 markers from L1, 1 from L2 -> m = max = 2, not 3.
    for src, n in (("L1", 2), ("L2", 1)):
        for _ in range(n):
            edge.receive_feedback(feedback(source=src))
    sim.run(until=sim.now + cfg.edge_epoch + 0.01)
    assert edge.allotted_rate(1) == pytest.approx(rate0 - cfg.beta * 2, abs=cfg.alpha)


def test_restart_resets_to_slow_start(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    edge.start_flow(1)
    sim.run(until=8.0)  # rate has ramped well past initial
    edge.stop_flow(1)
    sim.run(until=9.0)
    edge.start_flow(1)
    assert edge.allotted_rate(1) == INITIAL_RATE


def test_feedback_for_stopped_flow_is_stray(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    edge.receive_feedback(feedback())
    assert edge.stray_feedback == 1


class TestEgress(EgressContract):
    def test_markers_are_absorbed_and_counted(self, rig):
        sim, cfg, edge, catcher = rig
        edge.expect_flow(7)
        edge.receive(Packet.marker(7, "EinX", "Ein1", 1.0, 0.0), link=None)
        assert edge.delivered(7) == 0


def test_min_rate_contract_is_initial_and_floor(rig):
    sim, cfg, edge, catcher = rig
    attach(edge, min_rate=15.0)
    edge.start_flow(1)
    assert edge.allotted_rate(1) == 15.0
    for _ in range(50):
        edge.receive_feedback(feedback())
    sim.run(until=cfg.edge_epoch * 3)
    assert edge.allotted_rate(1) >= 15.0
