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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.csfq.config import CsfqConfig
from repro.csfq.estimator import ExponentialRateEstimator
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Router
from repro.sim.packet import Packet, PacketKind
from repro.sim.rng import RngRegistry

__all__ = ["CsfqCoreRouter", "CsfqLinkState"]


class CsfqLinkState:
    """Aggregate (flow-stateless) CSFQ state for one output link."""

    __slots__ = (
        "link",
        "capacity",
        "arrival",
        "accepted",
        "alpha",
        "tmp_alpha",
        "congested",
        "window_start",
        "prob_drops",
        "overflow_drops",
        "forwarded",
        "coin",
    )

    def __init__(self, link: Link, config: CsfqConfig, now: float) -> None:
        self.link = link
        self.capacity = link.bandwidth_pps
        self.arrival = ExponentialRateEstimator(config.k_alpha, start_time=now)
        self.accepted = ExponentialRateEstimator(config.k_alpha, start_time=now)
        self.alpha = 0.0
        self.tmp_alpha = 0.0
        self.congested = False
        self.window_start = now
        self.prob_drops = 0
        self.overflow_drops = 0
        self.forwarded = 0
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
        self._states: Dict[str, CsfqLinkState] = {}

    # -- setup -----------------------------------------------------------

    def enable_on_link(self, link: Link) -> CsfqLinkState:
        """Run CSFQ admission on an output link of this router."""
        if link.src_name != self.name:
            raise ConfigurationError(
                f"{self.name}: link {link.name} does not originate here"
            )
        if link.name in self._states:
            raise ConfigurationError(f"{self.name}: {link.name} already enabled")
        state = CsfqLinkState(link, self.config, self.sim.now)
        self._states[link.name] = state
        return state

    def state_for(self, link_name: str) -> Optional[CsfqLinkState]:
        return self._states.get(link_name)

    def enabled_links(self) -> Tuple[str, ...]:
        return tuple(self._states)

    def flow_state_entries(self) -> int:
        """Per-flow state entries held by this router: none.  CSFQ keeps
        only per-link aggregates (A, F, alpha, a flag, a window clock)."""
        return 0

    # -- data path --------------------------------------------------------

    def receive(self, packet: Packet, link: Link) -> None:
        if self.multipath:
            out_link = self.route_for_packet(packet)
        else:
            out_link = self.route_for(packet.dst)
        if out_link is None:
            self.forward(packet)  # raises (or drop-counts) appropriately
            return
        state = self._states.get(out_link.name)
        if state is None or packet.kind != PacketKind.DATA:
            out_link.send(packet)
            return
        self._csfq_admit(state, out_link, packet)

    def _csfq_admit(self, state: CsfqLinkState, out_link: Link, packet: Packet) -> None:
        now = self.sim.now
        label = packet.label
        if packet.count != 1:
            # CSFQ admission is a per-packet mechanism end to end: the
            # drop coin, the relabel and the alpha estimation all operate
            # packet by packet (SIGCOMM'98), so a CSFQ-enabled link is a
            # train split boundary.  Members admitted back-to-back at one
            # instant fold into the arrival estimator as pending load —
            # exactly one lump of ``n`` — and re-serialize individually
            # on the output link, so downstream hops see scalar traffic.
            for member in packet.split(self.sim):
                self._csfq_admit(state, out_link, member)
            return
        if state.alpha > 0.0 and label > 0.0:
            prob = max(0.0, 1.0 - state.alpha / label)
        else:
            # Cold start: no fair-share estimate yet, accept everything.
            prob = 0.0
        dropped = False
        if prob > 0.0:
            if state.coin is None:
                state.coin = self._rng.stream(f"csfq:{out_link.name}").random
            dropped = state.coin() < prob
        self._estimate_alpha(state, packet, now, dropped)
        if dropped:
            state.prob_drops += 1
            return
        if prob > 0.0:
            packet.label = min(label, state.alpha)
        if out_link.send(packet):
            state.forwarded += packet.count
        else:
            # Buffer overflow: the filter was too permissive -> shrink alpha.
            state.overflow_drops += packet.count
            state.alpha *= self.config.overflow_alpha_decay

    # -- fair share estimation ------------------------------------------------

    def _estimate_alpha(
        self, state: CsfqLinkState, packet: Packet, now: float, dropped: bool
    ) -> None:
        cfg = self.config
        state.arrival.update(now, packet.size)
        if not dropped:
            state.accepted.update(now, packet.size)
        if state.arrival.rate >= state.capacity:
            if not state.congested:
                state.congested = True
                state.window_start = now
                if state.alpha <= 0.0:
                    # First-ever congestion before an uncongested window
                    # completed: seed alpha from what we have seen so far.
                    state.alpha = max(state.tmp_alpha, packet.label)
            elif now > state.window_start + cfg.k_window:
                if state.accepted.rate > 0.0:
                    state.alpha *= state.capacity / state.accepted.rate
                state.window_start = now
        else:
            if state.congested:
                state.congested = False
                state.window_start = now
                state.tmp_alpha = 0.0
            else:
                state.tmp_alpha = max(state.tmp_alpha, packet.label)
                if now > state.window_start + cfg.k_window:
                    state.alpha = state.tmp_alpha
                    state.window_start = now
                    state.tmp_alpha = 0.0
