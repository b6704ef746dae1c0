"""Unit tests for the TCP sender/receiver, plus edge-interaction
integration (§4.4/§6 extension)."""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.errors import ConfigurationError
from repro.hosts.tcp import TcpReceiver, TcpSender
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue


def direct_pair(bandwidth=1000.0, delay=0.02, queue_capacity=1000):
    """Sender and receiver wired directly by a pair of links."""
    sim = Simulator()
    sender = TcpSender("S", sim, flow_id=1, dst_host="R")
    receiver = TcpReceiver("R", sim, flow_id=1, src_host="S")
    fwd = Link(sim, "S->R", "S", receiver, bandwidth, delay, DropTailQueue(queue_capacity))
    rev = Link(sim, "R->S", "R", sender, bandwidth, delay, DropTailQueue(queue_capacity))
    sender.set_route("R", fwd)
    receiver.set_route("S", rev)
    return sim, sender, receiver, fwd


class TestTcpBasics:
    def test_slow_start_doubles_cwnd_per_rtt(self):
        sim, sender, receiver, _ = direct_pair()
        sender.start()
        sim.run(until=0.3)  # a few RTTs (RTT = 40 ms)
        assert sender.cwnd > 8.0
        assert receiver.delivered > 0
        assert receiver.delivered >= sender.snd_una

    def test_reliable_in_order_delivery_without_loss(self):
        sim, sender, receiver, _ = direct_pair()
        sender.start()
        sim.run(until=2.0)
        assert sender.retransmissions == 0
        assert sender.timeouts == 0
        assert receiver.duplicates == 0
        assert receiver.delivered >= sender.snd_una > 100

    def test_stop_halts_transmission(self):
        sim, sender, receiver, _ = direct_pair()
        sender.start()
        sim.run(until=0.5)
        sender.stop()
        sent = sender.packets_sent
        sim.run(until=3.0)
        assert sender.packets_sent == sent
        assert not sender.running

    def test_single_loss_recovers_by_fast_retransmit(self):
        sim, sender, receiver, fwd = direct_pair()
        dropped = []

        def drop_one(packet, now):
            if packet.seq == 20 and not dropped:
                dropped.append(packet.seq)
                return True
            return False

        fwd.add_arrival_tap(drop_one)
        sender.start()
        sim.run(until=2.0)
        assert dropped == [20]
        assert sender.fast_retransmits == 1
        assert sender.timeouts == 0
        assert receiver.delivered >= sender.snd_una > 100

    def test_burst_loss_recovers_via_newreno_partial_acks(self):
        sim, sender, receiver, fwd = direct_pair()
        dropped = []

        def drop_burst(packet, now):
            if 30 <= packet.seq < 38 and packet.seq not in dropped:
                dropped.append(packet.seq)
                return True
            return False

        fwd.add_arrival_tap(drop_burst)
        sender.start()
        sim.run(until=4.0)
        assert len(dropped) == 8
        # every hole repaired without one RTO each
        assert receiver.delivered >= sender.snd_una > 200
        assert sender.timeouts <= 1

    def test_total_blackout_causes_timeouts_and_backoff(self):
        sim, sender, receiver, fwd = direct_pair()
        fwd.add_arrival_tap(lambda p, t: True)  # everything is lost
        sender.start()
        sim.run(until=10.0)
        assert sender.timeouts >= 3
        assert sender.rto > 1.0  # exponential backoff kicked in
        assert sender.cwnd == 1.0

    def test_rtt_estimate_tracks_path(self):
        sim, sender, receiver, _ = direct_pair(delay=0.05)
        sender.start()
        sim.run(until=2.0)
        assert sender.srtt == pytest.approx(0.1, rel=0.5)

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            TcpSender("S", sim, 1, "R", initial_ssthresh=1.0)
        with pytest.raises(ConfigurationError):
            TcpSender("S", sim, 1, "R", max_cwnd=1.0)


class TestTcpReceiver:
    def test_cumulative_ack_advances_through_buffered_ooo(self):
        sim = Simulator()
        receiver = TcpReceiver("R", sim, flow_id=1, src_host="S")
        acks = []

        class FakeLink:
            name = "rev"

            def send(self, packet):
                acks.append(packet.seq)
                return True

        receiver.set_route("S", FakeLink())
        for seq in (0, 2, 3, 1):
            receiver.receive(Packet.data(1, "S", "R", seq=seq, now=0.0), link=None)
        assert acks == [1, 1, 1, 4]
        assert receiver.delivered == 4

    def test_duplicate_data_counted(self):
        sim = Simulator()
        receiver = TcpReceiver("R", sim, flow_id=1, src_host="S")

        class FakeLink:
            name = "rev"

            def send(self, packet):
                return True

        receiver.set_route("S", FakeLink())
        for seq in (0, 0):
            receiver.receive(Packet.data(1, "S", "R", seq=seq, now=0.0), link=None)
        assert receiver.duplicates == 1


class TestTcpOverCorelite:
    def test_weighted_shares_flow_through_to_tcp(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, weight=1.0, transport="tcp"))
        net.add_flow(FlowSpec(flow_id=2, weight=2.0, transport="tcp"))
        res = net.run(until=150.0)
        # The edge allots the weighted split...
        rates = res.mean_rates((110.0, 150.0))
        assert rates[2] / rates[1] == pytest.approx(2.0, rel=0.25)
        # ...and TCP realizes a clearly weighted-ordered throughput.
        tput = res.mean_throughputs((110.0, 150.0))
        assert tput[2] > 1.3 * tput[1]
        # Neither flow exceeds its allotment.
        assert tput[1] <= rates[1] * 1.1
        assert tput[2] <= rates[2] * 1.1

    def test_tcp_adapts_to_edge_policing_without_collapse(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        builder.add_flow(FlowSpec(flow_id=1, weight=1.0, transport="tcp"))
        builder.add_flow(FlowSpec(flow_id=2, weight=1.0))  # shaped competitor
        net = builder.build()
        res = net.run(until=120.0)
        sender, receiver = net.tcp_hosts[1]
        # TCP keeps working: bounded timeouts, sustained delivery.
        assert sender.timeouts < 10
        assert receiver.delivered > 5_000
        # The shaped flow is not starved by TCP's bursts.
        rates = res.mean_rates((90.0, 120.0))
        assert rates[2] > 150.0

    def test_tcp_rejected_on_csfq(self):
        net = CloudBuilder(TopologySpec.chain(2), "csfq", seed=0)
        net.add_flow(FlowSpec(flow_id=1, transport="tcp"))
        with pytest.raises(ConfigurationError):
            net.build()

    def test_tcp_spec_validation(self):
        from repro.sim.sources import poisson_source

        with pytest.raises(Exception):
            FlowSpec(flow_id=1, transport="tcp", source=poisson_source(10.0))
        with pytest.raises(Exception):
            FlowSpec(flow_id=1, transport="carrier-pigeon")
