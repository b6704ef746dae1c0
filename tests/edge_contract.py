"""What an ``EdgeRouter`` does whichever scheme's signal it carries.

One body per case, both edges as inputs: ``test_corelite_edge.py`` and
``test_csfq_edge.py`` import the cases below and run them on their own ``rig``
fixture (``sim, cfg, edge, catcher`` with a route to ``"Eout1"``) and their
own ``n`` fixture (the arrival sizes the edge takes: scalar packets, and at
a Corelite edge trains of four as well — CSFQ edges receive no trains), and
``test_edge_cases.py`` runs :class:`LifecycleContract` once per edge class.
The input arrives through the importing module rather than through
``parametrize`` so that every case keeps the id it has always had under the
Corelite module and gains one under the CSFQ module.
"""

import pytest

from repro.core.edge import FlowAttachment
from repro.errors import FlowError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind, PacketTrain
from repro.sim.queues import DropTailQueue


def attach(edge, flow_id=1, weight=2.0, **kwargs):
    edge.attach_flow(FlowAttachment(flow_id, weight, "Eout1", **kwargs))


# -- ingress role ---------------------------------------------------------------


def test_flow_starts_stopped(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    sim.run(until=1.0)
    assert catcher.packets == []
    assert not edge.flow_active(1)
    assert edge.ingress_flow_ids() == (1,)


def test_duplicate_attach_rejected(rig):
    _, _, edge, _ = rig
    attach(edge)
    with pytest.raises(FlowError):
        attach(edge)


def test_an_aggregate_bucket_is_backlogged(rig):
    """A bucket's members carry no identity, so nothing can feed it."""
    _, _, edge, _ = rig
    with pytest.raises(FlowError, match="flow 1: an aggregate bucket is backlogged"):
        attach(edge, aggregate=4, backlogged=False)
    assert edge.ingress_flow_ids() == ()


def test_unknown_flow_queries_rejected(rig):
    _, _, edge, _ = rig
    with pytest.raises(FlowError):
        edge.allotted_rate(99)
    with pytest.raises(FlowError):
        edge.start_flow(99)


def test_stop_flow_stops_emission(rig):
    sim, cfg, edge, catcher = rig
    attach(edge)
    edge.start_flow(1)
    sim.run(until=1.0)
    edge.stop_flow(1)
    sim.run(until=2.0)  # drain packets already in flight at stop time
    count = len(catcher.packets)
    sim.run(until=10.0)
    assert len(catcher.packets) == count
    assert not edge.flow_active(1)


# -- egress role ----------------------------------------------------------------


def arrive(edge, seq, n=1):
    """``n`` contiguous packets of flow 7 from ``seq``: a scalar, or a train."""
    if n == 1:
        packet = Packet.data(7, "EinX", "Ein1", seq=seq, now=0.0)
    else:
        packet = PacketTrain(7, "EinX", "Ein1", seq, n, 0.0)
    edge.receive(packet, link=None)


def expected_seq(edge):
    """``expected_seq`` of flow 7 (the egress record is the edge's own)."""
    return edge._egress_flows[edge._egress_index[7]].expected_seq


class EgressContract:
    def test_delivery_metering(self, rig):
        sim, cfg, edge, catcher = rig
        edge.expect_flow(7)
        for seq in range(5):
            arrive(edge, seq)
        assert edge.delivered(7) == 5

    def test_gap_detection_counts_losses(self, rig):
        sim, cfg, edge, catcher = rig
        edge.expect_flow(7)
        for seq in (0, 1, 4, 5):
            arrive(edge, seq)
        assert edge.losses(7) == 2

    def test_unexpected_flow_rejected(self, rig):
        _, _, edge, _ = rig
        with pytest.raises(FlowError):
            edge.receive(Packet.data(9, "EinX", "Ein1", 0, 0.0), link=None)
        with pytest.raises(FlowError):
            edge.delivered(9)

    def test_throughput_meter(self, rig):
        sim, cfg, edge, catcher = rig
        edge.expect_flow(7)
        for seq in range(10):
            arrive(edge, seq)
        sim.run(until=2.0)
        assert edge.take_throughput(7) == pytest.approx(5.0)

    def test_adjacent_swap_is_not_a_loss(self, rig, n):
        """Eight arrivals, the fifth and sixth swapped (multipath): the one
        that was overtaken is late, not lost."""
        _, _, edge, _ = rig
        edge.expect_flow(7)
        seen = []
        for k in (0, 1, 2, 3, 5, 4, 6, 7):
            arrive(edge, k * n, n)
            seen.append(expected_seq(edge))
        assert edge.delivered(7) == 8 * n
        assert edge.losses(7) == 0
        assert seen == sorted(seen)  # never moves back

    def test_late_arrival_gives_back_at_most_what_was_booked(self, rig, n):
        _, _, edge, _ = rig
        edge.expect_flow(7)
        for k in (0, 1, 1, 2):  # a duplicate is late with nothing booked
            arrive(edge, k * n, n)
        assert edge.losses(7) == 0
        for k in (6, 4):  # 3, 4, 5 jumped over; 4 shows up after all
            arrive(edge, k * n, n)
        assert edge.losses(7) == 2 * n
        assert expected_seq(edge) == 7 * n


# -- lifecycle (``test_edge_cases.py``) ------------------------------------------


class LifecycleContract:
    edge_cls: type
    config_cls: type

    def make_edge(self):
        sim = Simulator()
        edge = self.edge_cls("Ein1", sim, self.config_cls())

        class Catcher:
            name = "C"
            packets = []

            def receive(self, p, link):
                self.packets.append(p)

        catcher = Catcher()
        link = Link(sim, "Ein1->C", "Ein1", catcher, 10_000.0, 0.0, DropTailQueue(10_000))
        edge.set_route("Eout1", link)
        return sim, edge, catcher

    def test_double_start_is_idempotent(self):
        sim, edge, catcher = self.make_edge()
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
        edge.start_flow(1)
        edge.start_flow(1)
        sim.run(until=2.0)
        seqs = [p.seq for p in catcher.packets if p.kind == PacketKind.DATA]
        assert seqs == sorted(set(seqs))  # no duplicated emissions

    def test_stop_without_start_is_noop(self):
        sim, edge, catcher = self.make_edge()
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
        edge.stop_flow(1)
        sim.run(until=1.0)
        assert catcher.packets == []

    def test_deposit_to_backlogged_flow_rejected(self):
        sim, edge, catcher = self.make_edge()
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))  # backlogged
        assert edge.backlog_of(1) is None
        with pytest.raises(FlowError):
            edge.deposit(1, 1)
