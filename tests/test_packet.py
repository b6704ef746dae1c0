"""Unit tests for the packet model."""

from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketKind


def test_data_packet_fields():
    p = Packet.data(7, "Ein", "Eout", seq=3, now=1.5)
    assert p.kind == PacketKind.DATA
    assert p.flow_id == 7
    assert p.size == 1.0
    assert p.seq == 3
    assert (p.src, p.dst) == ("Ein", "Eout")
    assert p.created_at == 1.5
    assert p.ecn is False


def test_packet_ids_are_unique_and_increasing():
    a = Packet.data(1, "A", "B", 0, 0.0)
    b = Packet.data(1, "A", "B", 1, 0.0)
    assert b.pid > a.pid


def test_marker_is_zero_size_and_carries_origin():
    m = Packet.marker(3, "Ein3", "Eout3", label=12.5, now=2.0)
    assert m.kind == PacketKind.MARKER
    assert m.size == 0.0
    assert m.origin_edge == "Ein3"
    assert m.label == 12.5


def test_data_packet_can_carry_csfq_label():
    p = Packet.data(1, "A", "B", seq=0, now=0.0, label=33.3)
    assert p.label == 33.3


def test_packet_kind_values_are_distinct():
    kinds = {PacketKind.DATA, PacketKind.MARKER, PacketKind.FEEDBACK, PacketKind.LOSS_NOTIFY}
    assert len(kinds) == 4


def test_simulator_owns_packet_ids():
    sim = Simulator()
    a = Packet.data(1, "A", "B", seq=0, now=0.0, sim=sim)
    b = Packet.marker(1, "A", "B", label=1.0, now=0.0, sim=sim)
    c = Packet(PacketKind.FEEDBACK, 1, src="C1->C2", dst="A", size=0.0, sim=sim)
    assert (a.pid, b.pid, c.pid) == (1, 2, 3)


def test_per_simulation_ids_restart_at_one():
    # Two clouds built in the same process see identical id sequences —
    # this is what keeps multi-seed batch runs independent of how many
    # simulations the worker process ran before.
    first = [Packet.data(1, "A", "B", seq=i, now=0.0, sim=Simulator()).pid for i in range(3)]
    sim = Simulator()
    second = [Packet.data(1, "A", "B", seq=i, now=0.0, sim=sim).pid for i in range(3)]
    assert first == [1, 1, 1]
    assert second == [1, 2, 3]


def test_bare_packets_fall_back_to_the_process_counter():
    a = Packet.data(1, "A", "B", seq=0, now=0.0)
    b = Packet.data(1, "A", "B", seq=1, now=0.0)
    assert b.pid > a.pid
