"""Edge cases and lifecycle corners across modules."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.core.adaptation import INITIAL_RATE
from repro.core.config import CoreliteConfig
from repro.core.edge import CoreliteEdge, FlowAttachment
from repro.csfq.config import CsfqConfig
from repro.csfq.edge import CsfqEdge
from repro.hosts.tcp import TcpReceiver, TcpSender
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue
from tests.edge_contract import LifecycleContract


class TestEngineCorners:
    def test_schedule_at_exactly_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(sim.now, fired.append, sim.now))
        sim.run()
        assert fired == [1.0]

    def test_periodic_task_stop_twice_is_safe(self):
        sim = Simulator()
        task = sim.every(1.0, lambda: None)
        task.stop()
        task.stop()
        assert task.stopped

    def test_run_with_until_before_any_event(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending() == 1


class TestEdgeLifecycle(LifecycleContract):
    edge_cls, config_cls = CoreliteEdge, CoreliteConfig

    def test_feedback_between_stop_and_restart_is_stray(self):
        sim, edge, catcher = self.make_edge()
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
        edge.start_flow(1)
        sim.run(until=1.0)
        edge.stop_flow(1)
        fb = Packet(PacketKind.FEEDBACK, 1, src="C1", dst="Ein1", size=0.0)
        fb.feedback_from = "L"
        edge.receive_feedback(fb)
        assert edge.stray_feedback == 1
        edge.start_flow(1)  # restart unaffected by the stray feedback
        assert edge.allotted_rate(1) == INITIAL_RATE

    def test_external_packets_while_stopped_are_dropped(self):
        sim, edge, catcher = self.make_edge()
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1", backlogged=False,
                                        external=True))
        pkt = Packet.data(1, "H", "R", seq=0, now=0.0)
        edge.receive(pkt, link=None)
        assert edge.shaper_drops_inactive == 1


class TestCsfqEdgeLifecycle(LifecycleContract):
    edge_cls, config_cls = CsfqEdge, CsfqConfig


class TestTcpInvariants:
    @given(st.sets(st.integers(0, 200), max_size=60), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_sequence_invariants_under_any_loss(self, lost, seed):
        """Whatever the loss pattern: the cumulative ack point never moves
        backwards, never passes the send frontier, and the transfer keeps
        making progress (losses are eventually repaired)."""
        sim = Simulator()
        sender = TcpSender("S", sim, 1, "R")
        receiver = TcpReceiver("R", sim, 1, "S")
        fwd = Link(sim, "S->R", "S", receiver, 1000.0, 0.01, DropTailQueue(5000))
        rev = Link(sim, "R->S", "R", sender, 1000.0, 0.01, DropTailQueue(5000))
        sender.set_route("R", fwd)
        receiver.set_route("S", rev)
        fwd.add_arrival_tap(lambda p, t: p.seq in lost and p.pid % 2 == 0)
        violations = []
        last_una = [0]

        def check():
            if sender.snd_una < last_una[0] or sender.snd_una > sender.next_seq:
                violations.append((sim.now, sender.snd_una, sender.next_seq))
            last_una[0] = sender.snd_una

        sim.every(0.02, check)
        sender.start()
        # The horizon must dominate a worst-case RTO backoff chain
        # (1+2+4+8+16 s with MAX_RTO=16): a loss pattern that parks one
        # hole behind consecutive timeouts legitimately takes tens of
        # seconds to repair, which is not an invariant violation.
        sim.run(until=40.0)
        assert not violations
        # every injected loss got repaired: the receiver's contiguous
        # prefix has moved past the largest lost sequence number.
        if lost:
            assert receiver.rcv_next > max(lost)
        assert receiver.delivered > 0

    def test_receiver_cumulative_ack_is_monotone(self):
        sim = Simulator()
        receiver = TcpReceiver("R", sim, 1, "S")
        acks = []

        class FakeLink:
            name = "rev"

            def send(self, packet):
                acks.append(packet.seq)
                return True

        receiver.set_route("S", FakeLink())
        rng = random.Random(0)
        seqs = list(range(50))
        rng.shuffle(seqs)
        for seq in seqs:
            receiver.receive(Packet.data(1, "S", "R", seq=seq, now=0.0), link=None)
        assert acks == sorted(acks)
        assert acks[-1] == 50


class TestNetworkCorners:
    def test_single_flow_network_is_stable(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, weight=5.0))
        res = net.run(until=30.0)
        assert res.total_drops == 0
        assert res.flows[1].delivered > 0

    def test_flow_scheduled_entirely_after_horizon_never_runs(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1))
        net.add_flow(FlowSpec(flow_id=2, schedule=((100.0, 200.0),)))
        res = net.run(until=20.0)
        assert res.flows[2].delivered == 0
        assert res.flows[2].rate_series.mean() == 0.0

    def test_zero_weight_rejected_everywhere(self):
        with pytest.raises(Exception):
            FlowSpec(flow_id=1, weight=0.0)