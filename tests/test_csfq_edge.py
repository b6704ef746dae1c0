"""Unit tests for the CSFQ edge router."""

import pytest

from repro.core.adaptation import INITIAL_RATE
from repro.csfq.config import CsfqConfig
from repro.core.edge import FlowAttachment
from repro.csfq.edge import CsfqEdge
from repro.errors import FlowError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from tests.edge_contract import (  # noqa: F401 - the cases both edges run
    EgressContract,
    arrive,
    test_an_aggregate_bucket_is_backlogged,
    test_duplicate_attach_rejected,
    test_flow_starts_stopped,
    test_stop_flow_stops_emission,
    test_unknown_flow_queries_rejected,
)


class Catcher:
    def __init__(self):
        self.name = "CATCH"
        self.packets = []

    def receive(self, packet, link):
        self.packets.append(packet)


@pytest.fixture
def rig():
    sim = Simulator()
    cfg = CsfqConfig()
    edge = CsfqEdge("Ein1", sim, cfg)
    catcher = Catcher()
    link = Link(sim, "Ein1->C", "Ein1", catcher, 10_000.0, 0.0, DropTailQueue(1000))
    edge.set_route("Eout1", link)
    return sim, cfg, edge, catcher


@pytest.fixture(params=[1], ids=["scalar"])
def n(request):
    """Egress arrival sizes: scalar packets only (CSFQ edges emit no trains)."""
    return request.param


def test_emitted_packets_carry_normalized_labels(rig):
    sim, cfg, edge, catcher = rig
    edge.attach_flow(FlowAttachment(1, weight=2.0, dst_edge="Eout1"))
    edge.start_flow(1)
    sim.run(until=5.0)
    data = [p for p in catcher.packets if p.kind == PacketKind.DATA]
    assert data
    # After several seconds the estimate tracks the paced rate; the label
    # is rate/weight.
    last = data[-1]
    assert last.label == pytest.approx(edge.allotted_rate(1) / 2.0, rel=1.0)


def test_no_markers_in_csfq(rig):
    sim, cfg, edge, catcher = rig
    edge.attach_flow(FlowAttachment(1, weight=1.0, dst_edge="Eout1"))
    edge.start_flow(1)
    sim.run(until=3.0)
    assert all(p.kind == PacketKind.DATA for p in catcher.packets)


def test_loss_notification_throttles(rig):
    sim, cfg, edge, catcher = rig
    edge.attach_flow(FlowAttachment(1, weight=1.0, dst_edge="Eout1"))
    edge.start_flow(1)
    sim.run(until=3.0)
    rate_before = edge.allotted_rate(1)
    notify = Packet(PacketKind.LOSS_NOTIFY, 1, src="Eout1", dst="Ein1", size=0.0, label=3.0)
    edge.receive_loss_notify(notify)
    sim.run(until=3.0 + cfg.edge_epoch + 0.01)
    assert edge.allotted_rate(1) < rate_before


def test_stray_notification_counted(rig):
    sim, cfg, edge, catcher = rig
    notify = Packet(PacketKind.LOSS_NOTIFY, 42, src="X", dst="Ein1", size=0.0, label=1.0)
    edge.receive_loss_notify(notify)
    assert edge.stray_notifications == 1


def test_wrong_kind_on_control_plane_rejected(rig):
    sim, cfg, edge, catcher = rig
    with pytest.raises(FlowError):
        edge.receive_loss_notify(Packet.data(1, "A", "Ein1", 0, 0.0))


def test_contracts_and_host_fed_flows_are_corelite_features(rig):
    _, _, edge, _ = rig
    with pytest.raises(FlowError, match="Corelite"):
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1", min_rate=1))
    with pytest.raises(FlowError, match="Corelite"):
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1", backlogged=False, external=True))
    assert edge.ingress_flow_ids() == ()


class TestEgress(EgressContract):
    def test_gap_is_reported_and_a_late_arrival_is_not(self, rig):
        """The notification leaves at the gap (a gap detector cannot recall
        it); the packet that was only overtaken sends none."""
        sim, cfg, edge, catcher = rig
        reports = []
        edge.loss_channel = reports.append
        edge.expect_flow(7)
        for seq in (0, 1, 2, 3, 5, 4, 6, 7):
            arrive(edge, seq)
        assert [r.label for r in reports] == [1.0]
        assert edge.losses(7) == 0 and edge.delivered(7) == 8

    def test_gap_triggers_loss_report(self, rig):
        sim, cfg, edge, catcher = rig
        reports = []
        edge.loss_channel = reports.append
        edge.expect_flow(5)
        edge.receive(Packet.data(5, "EinX", "Ein1", seq=0, now=0.0), link=None)
        edge.receive(Packet.data(5, "EinX", "Ein1", seq=4, now=0.0), link=None)
        assert edge.losses(5) == 3
        assert len(reports) == 1
        assert reports[0].kind == PacketKind.LOSS_NOTIFY
        assert reports[0].dst == "EinX"
        assert reports[0].label == 3.0

    def test_in_order_stream_reports_nothing(self, rig):
        sim, cfg, edge, catcher = rig
        reports = []
        edge.loss_channel = reports.append
        edge.expect_flow(5)
        for seq in range(20):
            edge.receive(Packet.data(5, "EinX", "Ein1", seq=seq, now=0.0), link=None)
        assert reports == []
        assert edge.delivered(5) == 20

    def test_ecn_mark_reported_as_congestion(self, rig):
        sim, cfg, edge, catcher = rig
        reports = []
        edge.loss_channel = reports.append
        edge.expect_flow(5)
        p = Packet.data(5, "EinX", "Ein1", seq=0, now=0.0)
        p.ecn = True
        edge.receive(p, link=None)
        assert len(reports) == 1
        assert reports[0].label == 1.0

    def test_missing_loss_channel_is_tolerated(self, rig):
        sim, cfg, edge, catcher = rig
        edge.loss_channel = None
        edge.expect_flow(5)
        edge.receive(Packet.data(5, "EinX", "Ein1", seq=0, now=0.0), link=None)
        edge.receive(Packet.data(5, "EinX", "Ein1", seq=9, now=0.0), link=None)
        assert edge.losses(5) == 8  # counted even if unreported


def test_restart_resets_estimator_and_controller(rig):
    sim, cfg, edge, catcher = rig
    edge.attach_flow(FlowAttachment(1, weight=1.0, dst_edge="Eout1"))
    edge.start_flow(1)
    sim.run(until=6.0)
    edge.stop_flow(1)
    sim.run(until=7.0)
    edge.start_flow(1)
    assert edge.allotted_rate(1) == INITIAL_RATE


def test_a_restarted_flow_forgets_losses_its_last_epoch_had_not_folded(rig):
    """Losses reported after the last edge epoch of a flow's previous run are
    that run's: restarted, the flow begins slow start as a new flow does."""
    sim, cfg, edge, catcher = rig
    edge.attach_flow(FlowAttachment(1, weight=1.0, dst_edge="Eout1"))
    edge.start_flow(1)
    sim.run(until=3.0)
    notify = Packet(PacketKind.LOSS_NOTIFY, 1, src="Eout1", dst="Ein1", size=0.0, label=3.0)
    edge.receive_loss_notify(notify)
    edge.stop_flow(1)
    edge.start_flow(1)
    sim.run(until=3.0 + cfg.edge_epoch + 0.01)
    assert edge.allotted_rate(1) >= INITIAL_RATE
