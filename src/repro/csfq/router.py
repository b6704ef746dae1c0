"""The CSFQ core router (SIGCOMM'98 pseudocode, weighted form).

Per output link the router keeps aggregate state only:

* ``A`` — exponential estimate of the total arrival rate (drops included),
* ``F`` — exponential estimate of the accepted rate,
* ``alpha`` — the current normalized fair share estimate,
* a congested/uncongested flag and the ``Klink`` window bookkeeping.

On each arriving data packet carrying label ``rn = r/w``::

    prob = max(0, 1 - alpha / rn)
    drop with probability prob, else forward and relabel to min(rn, alpha)

``alpha`` is updated once per ``Klink`` window: while congested
(``A >= C``) it is scaled by ``C/F``; while uncongested it is set to the
largest label seen in the window.  A buffer overflow (the probabilistic
filter let too much through) decays ``alpha`` by a small fixed factor.

This explicit fair-share estimation is exactly what the Corelite paper
blames for CSFQ's transient misbehaviour (§4.2): underestimate ``alpha``
and flows below fair share lose packets; overestimate it and queues build
until tail drop.  The implementation here keeps those dynamics.

All of it is one frame per packet, :meth:`CsfqCoreRouter.receive`; ``A`` and
``F`` are :class:`repro.sim.estimators.ExponentialRateEstimator` written out
against the link state's own fields, arithmetic unchanged.  A flow's last
core hop may reach ``receive`` at its in-link's send, its instant as ``at``
(:mod:`repro.sim.link`, "Pass-through"): the estimator clocks, the alpha
window and the send on run at ``at``.  Only that hop's arrivals read its
egress link's state, and its one feeder hands them over in order, so every
coin of the link's stream is drawn in the same order.
"""

from __future__ import annotations

from math import exp
from typing import Callable, Dict, Optional, Tuple

from repro.csfq.config import CsfqConfig
from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngRegistry

__all__ = ["CsfqCoreRouter", "CsfqLinkState"]

_DATA = PacketKind.DATA

#: Averaging constant of the aggregate arrival (``A``) and accepted (``F``)
#: rate estimators, seconds: chosen, the same order as ``K`` and ``Klink``.
K_ALPHA = 0.1
#: Factor ``alpha`` is multiplied by when the buffer overflows despite the
#: probabilistic filter (SIGCOMM'98: "a small fixed percentage").
OVERFLOW_ALPHA_DECAY = 0.99


class CsfqLinkState:
    """Aggregate (flow-stateless) CSFQ state for one output link.

    ``arrival_*`` (``A``) and ``accepted_*`` (``F``) are each an estimate,
    the clock of its last positive-gap update and the load that has
    arrived at that very instant since, still to fold.
    """

    __slots__ = (
        "link",
        "capacity",
        "arrival_rate",
        "arrival_time",
        "arrival_pending",
        "accepted_rate",
        "accepted_time",
        "accepted_pending",
        "alpha",
        "tmp_alpha",
        "congested",
        "window_start",
        "prob_drops",
        "overflow_drops",
        "coin",
    )

    def __init__(self, link: Link, now: float) -> None:
        self.link = link
        self.capacity = link.bandwidth_pps
        self.arrival_rate = self.accepted_rate = 0.0
        self.arrival_time = self.accepted_time = now
        self.arrival_pending = self.accepted_pending = 0.0
        self.alpha = 0.0
        self.tmp_alpha = 0.0
        self.congested = False
        self.window_start = now
        self.prob_drops = 0
        self.overflow_drops = 0
        #: The link's drop coin, bound by the first flip: a link that never
        #: drops (idle access links) never seeds a stream.
        self.coin: Optional[Callable[[], float]] = None


class CsfqCoreRouter(Router):
    """A core router running weighted CSFQ on its enabled output links."""

    def __init__(
        self, name: str, sim: Simulator, config: CsfqConfig, rng: RngRegistry
    ) -> None:
        super().__init__(name)
        self.sim = sim
        self.config = config
        self._rng = rng
        self._states: Dict[Link, CsfqLinkState] = {}

    # -- setup -----------------------------------------------------------

    def enable_on_link(self, link: Link) -> CsfqLinkState:
        """Run CSFQ admission on an output link of this router: only its
        arrivals read the link's state, so it has no epoch to park."""
        if link.src_name != self.name:
            raise ConfigurationError(
                f"{self.name}: link {link.name} does not originate here"
            )
        if link in self._states:
            raise ConfigurationError(f"{self.name}: {link.name} already enabled")
        state = self._states[link] = CsfqLinkState(link, self.sim.now)
        link.epochless = True
        return state

    def state_for(self, link_name: str) -> Optional[CsfqLinkState]:
        return next((s for link, s in self._states.items() if link.name == link_name), None)

    def enabled_links(self) -> Tuple[str, ...]:
        return tuple(link.name for link in self._states)

    def flow_state_entries(self) -> int:
        """Per-flow state entries held by this router: none.  CSFQ keeps
        only per-link aggregates (A, F, alpha, a flag, a window clock)."""
        return 0

    # -- data path --------------------------------------------------------

    def receive(self, packet: Packet, link: Link, at: Optional[float] = None) -> None:
        if self.multipath:
            out_link = self.route_for_packet(packet)
        else:
            out_link = self._routes.get(packet.dst)
            if out_link is None:
                # Not a table hit: a core down to one live out-link holds an uplink.
                out_link = self.route_for(packet.dst)
        if out_link is None:
            self.forward(packet)  # raises (or drop-counts) appropriately
            return
        state = self._states.get(out_link)
        if state is None or packet.kind is not _DATA:
            out_link.send(packet, at)
            return
        now = self.sim.now if at is None else at
        label = packet.label
        size = packet.size
        alpha = state.alpha
        # Cold start (no fair-share estimate yet) accepts everything.
        prob = 1.0 - alpha / label if alpha > 0.0 and label > 0.0 else 0.0
        dropped = False
        if prob > 0.0:
            coin = state.coin
            if coin is None:
                coin = state.coin = self._rng.stream(f"csfq:{out_link.name}").random
            dropped = coin() < prob
        # A, the arrival rate (drops included).  Arrivals at the instant of
        # the last update wait as pending load for the next positive gap.
        clock = state.arrival_time
        gap = now - clock
        if gap > 0.0:
            weight = exp(-gap / K_ALPHA)
            load = state.arrival_pending + size
            state.arrival_pending = 0.0
            state.arrival_time = now
            arrival = (1.0 - weight) * (load / gap) + weight * state.arrival_rate
            state.arrival_rate = arrival
        elif gap == 0.0:
            state.arrival_pending += size
            arrival = state.arrival_rate
        else:
            raise SimulationError(f"rate estimator saw time go backwards ({gap})")
        # F, the accepted rate.  Its clock only stops while packets are
        # dropped, so it is never ahead of A's, and until a drop parts the
        # two it shares A's gap and exponential.
        if not dropped:
            if state.accepted_time != clock:
                gap = now - state.accepted_time
                weight = exp(-gap / K_ALPHA)
            if gap > 0.0:
                load = state.accepted_pending + size
                state.accepted_pending = 0.0
                state.accepted_time = now
                state.accepted_rate = (1.0 - weight) * (load / gap) + weight * state.accepted_rate
            else:
                state.accepted_pending += size
        # alpha, once per Klink window.
        if arrival >= state.capacity:
            if not state.congested:
                state.congested = True
                state.window_start = now
                if alpha <= 0.0:
                    # First-ever congestion before an uncongested window
                    # completed: seed alpha from what we have seen so far.
                    tmp = state.tmp_alpha
                    alpha = state.alpha = label if label > tmp else tmp
            elif now > state.window_start + self.config.k_window:
                if state.accepted_rate > 0.0:
                    alpha = state.alpha = alpha * (state.capacity / state.accepted_rate)
                state.window_start = now
        elif state.congested:
            state.congested = False
            state.window_start = now
            state.tmp_alpha = 0.0
        else:
            if label > state.tmp_alpha:
                state.tmp_alpha = label
            if now > state.window_start + self.config.k_window:
                alpha = state.alpha = state.tmp_alpha
                state.window_start = now
                state.tmp_alpha = 0.0
        if dropped:
            state.prob_drops += 1
            return
        if prob > 0.0 and alpha < label:
            packet.label = alpha
        if not out_link.send(packet, at):
            # Buffer overflow: the filter was too permissive -> shrink alpha.
            state.overflow_drops += 1
            state.alpha *= OVERFLOW_ALPHA_DECAY
