"""Control plane for feedback traffic.

Corelite's feedback markers and the CSFQ baseline's loss notifications are
tiny control packets.  Routing them through the data queues would add code
and events without changing behaviour (they are ≪1% of a data packet), so
the simulator delivers them directly after the *reverse-path propagation
delay* — the component of the feedback latency that actually shapes the
control loop (see DESIGN.md §3 for the substitution rationale).

Delivery is reliable, as in the paper's §4 evaluation: a control packet
is lost only when a link failure has cut its reverse path.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.errors import RoutingError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.topology import Topology

__all__ = ["ControlPlane"]


class ControlPlane:
    """Propagation-delay-accurate delivery of control packets."""

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self._delay_cache: Dict[Tuple[str, str], float] = {}
        #: Total control packets delivered (for accounting/tests).
        self.delivered = 0
        #: Control packets that found no reverse path (network partition).
        self.unroutable = 0

    def delay(self, src: str, dst: str) -> float:
        """Propagation delay from ``src`` to ``dst`` (cached)."""
        key = (src, dst)
        delay = self._delay_cache.get(key)
        if delay is None:
            delay = self.topology.path_delay(src, dst)
            self._delay_cache[key] = delay
        return delay

    def invalidate_paths(self) -> None:
        """Forget cached path delays — called after the topology changes,
        so feedback latency tracks the paths packets actually take."""
        self._delay_cache.clear()

    def send(
        self,
        src: str,
        dst: str,
        deliver: Callable[[Packet], None],
        packet: Packet,
    ) -> None:
        """Deliver ``packet`` to ``deliver`` after the src->dst path delay.

        A packet whose endpoints a link failure has partitioned is counted
        in :attr:`unroutable` and dropped — real feedback datagrams die the
        same way.
        """
        try:
            delay = self.delay(src, dst)
        except RoutingError:
            self.unroutable += 1
            return
        # Control deliveries are never cancelled: use the no-handle path.
        self.sim.schedule_fast(delay, self._deliver, deliver, packet)

    def _deliver(self, deliver: Callable[[Packet], None], packet: Packet) -> None:
        self.delivered += 1
        deliver(packet)
