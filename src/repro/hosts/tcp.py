"""A Reno-style TCP sender/receiver pair.

Deliberately classic and compact — slow start, congestion avoidance,
triple-duplicate-ACK fast retransmit, coarse RTO with exponential backoff
and Karn's rule for RTT samples — because the point of the extension is
the *interaction with the Corelite edge* (shaping + edge drops), not TCP
minutiae.  The receiver acknowledges every data packet with a cumulative
ACK (``packet.seq`` = next expected byte... packet, since the simulator's
unit is packets).

Both ends are :class:`~repro.sim.node.Router` nodes, so ACKs and data
ride the simulated links like any other traffic (ACKs are size 0, the
customary simplification).

Host-originated (``external``) flows never join the packet-train
datapath: their packets pre-exist in the edge's shaper buffer, each one
an individual TCP segment whose loss/ACK accounting is per-packet, so
the ingress edge pins ``train_batch = 1`` for them even when the cloud
is built with ``train_batch > 1`` (see ``CoreliteEdge.attach_flow``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import EventHandle, Simulator
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind

__all__ = ["TcpSender", "TcpReceiver"]

#: Initial retransmission timeout and its bounds, seconds.
INITIAL_RTO = 1.0
MIN_RTO = 0.2
MAX_RTO = 16.0


class TcpSender(Router):
    """A Reno-ish TCP source pushing an unbounded transfer."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        flow_id: int,
        dst_host: str,
        initial_ssthresh: float = 64.0,
        max_cwnd: float = 10_000.0,
    ) -> None:
        super().__init__(name)
        if initial_ssthresh < 2:
            raise ConfigurationError(f"ssthresh must be >= 2, got {initial_ssthresh}")
        if max_cwnd < 2:
            raise ConfigurationError(f"max_cwnd must be >= 2, got {max_cwnd}")
        self.sim = sim
        self.flow_id = flow_id
        self.dst_host = dst_host
        # -- congestion state ------------------------------------------------
        self.cwnd = 1.0
        self.ssthresh = initial_ssthresh
        self.max_cwnd = max_cwnd
        # -- sequence state -------------------------------------------------
        self.next_seq = 0
        self.snd_una = 0  # lowest unacknowledged sequence number
        self._dup_acks = 0
        # NewReno recovery: while snd_una < _recovery_point, a "partial"
        # cumulative ACK reveals the next hole, which is retransmitted
        # immediately instead of waiting out a (backed-off) RTO per hole.
        self._in_recovery = False
        self._recovery_point = 0
        # -- RTT / RTO ----------------------------------------------------------
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._send_times: Dict[int, float] = {}
        self._retransmitted: set = set()
        self._timer: Optional[EventHandle] = None
        # -- counters -----------------------------------------------------------
        self.running = False
        self.packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.acks_received = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._fill_window()
        self._arm_timer()

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- sending ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        return self.next_seq - self.snd_una

    def _fill_window(self) -> None:
        while self.running and self.in_flight < int(self.cwnd):
            self._transmit(self.next_seq, fresh=True)
            self.next_seq += 1

    def _transmit(self, seq: int, fresh: bool) -> None:
        packet = Packet.data(
            self.flow_id, self.name, self.dst_host, seq=seq, now=self.sim.now, sim=self.sim
        )
        if fresh:
            self._send_times[seq] = self.sim.now
        else:
            self.retransmissions += 1
            self._retransmitted.add(seq)
            self._send_times.pop(seq, None)  # Karn: no RTT sample from rexmit
        self.packets_sent += 1
        self.forward(packet)

    # -- receiving ACKs ------------------------------------------------------

    def receive(self, packet: Packet, link) -> None:
        if packet.dst != self.name:
            self.forward(packet)
            return
        if packet.kind != PacketKind.ACK or not self.running:
            return
        self.acks_received += 1
        ack = packet.seq  # cumulative: next sequence the receiver expects
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una:
            self._on_dup_ack()

    def _on_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.snd_una
        self._sample_rtt(ack)
        for seq in range(self.snd_una, ack):
            self._send_times.pop(seq, None)
            self._retransmitted.discard(seq)
        self.snd_una = ack
        self._dup_acks = 0
        if self._in_recovery:
            if ack < self._recovery_point:
                # Partial ACK: the next hole is exactly snd_una (NewReno).
                self._transmit(self.snd_una, fresh=False)
                self._arm_timer()
                return
            self._in_recovery = False
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly_acked)  # slow start
        else:
            self.cwnd = min(self.max_cwnd, self.cwnd + newly_acked / self.cwnd)
        self._arm_timer()
        self._fill_window()

    def _on_dup_ack(self) -> None:
        self._dup_acks += 1
        if self._dup_acks == 3 and not self._in_recovery:
            # Fast retransmit + (simplified NewReno) fast recovery.
            self.fast_retransmits += 1
            self.ssthresh = max(2.0, self.in_flight / 2.0)
            self.cwnd = self.ssthresh
            self._in_recovery = True
            self._recovery_point = self.next_seq
            self._transmit(self.snd_una, fresh=False)
            self._arm_timer()

    def _sample_rtt(self, ack: int) -> None:
        # Use the highest newly-acked, never-retransmitted segment.
        for seq in range(ack - 1, self.snd_una - 1, -1):
            sent = self._send_times.get(seq)
            if sent is None or seq in self._retransmitted:
                continue
            sample = self.sim.now - sent
            if self.srtt is None:
                self.srtt = sample
                self.rttvar = sample / 2.0
            else:
                self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
                self.srtt = 0.875 * self.srtt + 0.125 * sample
            self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4.0 * self.rttvar))
            return

    # -- retransmission timer ------------------------------------------------

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.schedule(self.rto, self._on_timeout, self.snd_una)

    def _on_timeout(self, una_at_arm: int) -> None:
        self._timer = None
        if not self.running:
            return
        if self.snd_una > una_at_arm:
            self._arm_timer()  # progress happened; timer was stale
            return
        self.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self._dup_acks = 0
        # Holes revealed by the retransmission's ACKs are repaired via the
        # NewReno partial-ack path rather than one RTO each.
        self._in_recovery = True
        self._recovery_point = self.next_seq
        self.rto = min(MAX_RTO, self.rto * 2.0)
        self._transmit(self.snd_una, fresh=False)
        self._arm_timer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpSender({self.name}, cwnd={self.cwnd:.1f}, "
            f"una={self.snd_una}, next={self.next_seq})"
        )


class TcpReceiver(Router):
    """Cumulative-ACK receiver with out-of-order buffering."""

    def __init__(self, name: str, sim: Simulator, flow_id: int, src_host: str) -> None:
        super().__init__(name)
        self.sim = sim
        self.flow_id = flow_id
        self.src_host = src_host
        self.rcv_next = 0
        self._out_of_order: set = set()
        self.delivered = 0
        self.duplicates = 0
        self.acks_sent = 0

    def receive(self, packet: Packet, link) -> None:
        if packet.dst != self.name:
            self.forward(packet)
            return
        if packet.kind != PacketKind.DATA:
            return
        seq = packet.seq
        if seq == self.rcv_next:
            self.rcv_next += 1
            self.delivered += 1
            while self.rcv_next in self._out_of_order:
                self._out_of_order.discard(self.rcv_next)
                self.rcv_next += 1
                self.delivered += 1
        elif seq > self.rcv_next:
            if seq in self._out_of_order:
                self.duplicates += 1
            else:
                self._out_of_order.add(seq)
        else:
            self.duplicates += 1
        self._send_ack()

    def _send_ack(self) -> None:
        ack = Packet(
            PacketKind.ACK,
            self.flow_id,
            src=self.name,
            dst=self.src_host,
            size=0.0,
            seq=self.rcv_next,
            created_at=self.sim.now,
            sim=self.sim,
        )
        self.acks_sent += 1
        self.forward(ack)
