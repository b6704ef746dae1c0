"""Weighted Fair Queueing — the Intserv-style, per-flow-state reference.

The paper's §1 framing: Intserv service models (WFQ and friends) deliver
per-flow weighted fairness but "require a substantial amount of per-flow
state ... in the core", which is why Corelite exists.  This module
provides that stateful reference point so the repository spans the whole
spectrum: FIFO (no state, no fairness) → RED/DECbit/FRED (aggregate or
buffered-flow state) → Corelite/CSFQ (edge state only) → WFQ (full
per-flow state, exact weighted service).

Scheduling is Self-Clocked Fair Queueing (Golestani '94): each arriving
packet gets a finish tag ``F_i = max(V, F_i_prev) + size/w_i`` where the
virtual time ``V`` is the finish tag of the packet most recently put in
service; the scheduler always transmits the smallest finish tag.  SCFQ is
the standard practical approximation of GPS and inherits its key
property: backlogged flows receive service in proportion to their
weights, regardless of their arrival processes.

Buffering uses *buffer stealing*: when the shared pool is full, the
newest packet of the flow with the largest backlog is evicted in favor of
the arrival (unless the arriving flow itself is the longest).  Without
it, a full shared buffer degrades into FCFS admission and the scheduler's
ordering becomes irrelevant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.sim.packet import Packet
from repro.sim.queues import FifoQueue

__all__ = ["WfqQueue"]

#: Returns the scheduling weight for a flow id.
WeightLookup = Callable[[int], float]


class WfqQueue(FifoQueue):
    """A per-flow weighted fair queue (SCFQ + buffer stealing)."""

    def __init__(self, capacity: float, weight_of: Optional[WeightLookup] = None) -> None:
        super().__init__(capacity)
        self._weight_of = weight_of if weight_of is not None else (lambda fid: 1.0)
        #: heap of (finish_tag, tiebreak, packet)
        self._heap: List[Tuple[float, int, Packet]] = []
        self._tiebreak = itertools.count()
        #: last finish tag per flow — the per-flow state Corelite avoids.
        self._finish: Dict[int, float] = {}
        self._virtual_time = 0.0
        #: per-flow buffered DATA packets as (packet, finish_tag), newest
        #: last (for buffer stealing with finish-tag rollback).
        self._per_flow: Dict[int, List[Tuple[Packet, float]]] = {}
        #: lazily-removed (stolen) packet ids still sitting in the heap.
        self._cancelled: Set[int] = set()
        #: service received per flow (for fairness assertions in tests).
        self.served: Dict[int, float] = {}
        self.stolen = 0

    # -- bookkeeping helpers --------------------------------------------------

    @property
    def per_flow_state_size(self) -> int:
        """Number of flows the scheduler currently tracks."""
        return len(self._per_flow)

    def backlog_of(self, flow_id: int) -> int:
        """Buffered data packets of one flow."""
        return len(self._per_flow.get(flow_id, ()))

    def admit(self, packet: Packet, now: float) -> bool:  # pragma: no cover
        # Unused: push() implements admission with buffer stealing.
        return True

    # -- buffer stealing ----------------------------------------------------

    def _steal_for(self, arriving_flow: int, now: float) -> bool:
        """Evict the newest packet of the longest-backlog flow.

        Returns False when the arriving flow *is* the longest (its own
        arrival is the right victim — i.e. drop the arrival).
        """
        victim_flow = max(self._per_flow, key=lambda f: len(self._per_flow[f]))
        if len(self._per_flow.get(arriving_flow, ())) >= len(self._per_flow[victim_flow]):
            return False
        victim, victim_tag = self._per_flow[victim_flow].pop()
        # Roll the flow's schedule back: the stolen packet will never be
        # served, so it must not push the flow's future tags out (a flow
        # whose drops inflate its tags would starve forever).
        bucket = self._per_flow[victim_flow]
        if bucket:
            self._finish[victim_flow] = bucket[-1][1]
        else:
            weight = self._weight_of(victim_flow)
            self._finish[victim_flow] = victim_tag - max(victim.size, 1e-12) / weight
            del self._per_flow[victim_flow]
        self._cancelled.add(victim.pid)
        self._advance(now)
        self._occupancy -= victim.size
        self.stats.dropped_data += 1
        self.stolen += 1
        return True

    # -- queue interface ----------------------------------------------------

    def push(self, packet: Packet, now: float) -> bool:
        weight = self._weight_of(packet.flow_id)
        if weight <= 0:
            raise ConfigurationError(
                f"flow {packet.flow_id}: WFQ weight must be positive, got {weight}"
            )
        if packet.size > 0.0 and self._occupancy + packet.size > self.capacity:
            if not self._steal_for(packet.flow_id, now):
                self.stats.dropped_data += 1
                return False
        start = max(self._virtual_time, self._finish.get(packet.flow_id, 0.0))
        finish = start + max(packet.size, 1e-12) / weight
        self._finish[packet.flow_id] = finish
        heapq.heappush(self._heap, (finish, next(self._tiebreak), packet))
        if packet.size > 0.0:
            self._per_flow.setdefault(packet.flow_id, []).append((packet, finish))
            self._advance(now)
            self._occupancy += packet.size
        return True

    def pop(self, now: float) -> Optional[Packet]:
        while self._heap:
            finish, _tie, packet = heapq.heappop(self._heap)
            if packet.pid in self._cancelled:
                self._cancelled.discard(packet.pid)
                continue
            self._virtual_time = finish
            if packet.size > 0.0:
                bucket = self._per_flow.get(packet.flow_id)
                if bucket:
                    # The oldest buffered packet of the flow is this one.
                    bucket.pop(0)
                    if not bucket:
                        del self._per_flow[packet.flow_id]
                        self._finish.pop(packet.flow_id, None)
                self._advance(now)
                self._occupancy -= packet.size
                self.served[packet.flow_id] = (
                    self.served.get(packet.flow_id, 0.0) + packet.size
                )
            return packet
        # An empty scheduler forgets its flows — per-flow state exists
        # only while the flow is backlogged.
        if self._finish:
            self._finish.clear()
            self._virtual_time = 0.0
        return None

    def __len__(self) -> int:
        return len(self._heap) - len(self._cancelled)
