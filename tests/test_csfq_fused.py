"""The fused CSFQ core admission against the three-function chain it replaced.

``CsfqCoreRouter._csfq_admit`` writes both rate estimators out against flat
``CsfqLinkState`` fields (one ``exp`` while their clocks agree).  The chain it
replaced — ``_csfq_admit`` -> ``_estimate_alpha`` -> ``update`` twice — is the
oracle here; everything observable must stay ``==`` after every packet.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csfq.config import CsfqConfig
from repro.csfq.router import CsfqCoreRouter, CsfqLinkState
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.estimators import ExponentialRateEstimator
from repro.sim.link import Link
from repro.sim.packet import Packet, PacketKind, PacketTrain
from repro.sim.queues import DropTailQueue


class _OracleState:
    def __init__(self, link, config, now):
        self.capacity = link.bandwidth_pps
        self.arrival = ExponentialRateEstimator(config.k_alpha, start_time=now)
        self.accepted = ExponentialRateEstimator(config.k_alpha, start_time=now)
        self.alpha = self.tmp_alpha = 0.0
        self.congested = False
        self.window_start = now
        self.prob_drops = self.overflow_drops = self.forwarded = 0
        self.coin = None


class OracleRouter(CsfqCoreRouter):
    """The admission chain deleted from ``src/``, method bodies verbatim."""

    def enable_on_link(self, link):
        state = self._states[link.name] = _OracleState(link, self.config, self.sim.now)
        return state

    def receive(self, packet, link):
        if self.multipath:
            out_link = self.route_for_packet(packet)
        else:
            out_link = self.route_for(packet.dst)
        if out_link is None:
            self.forward(packet)
            return
        state = self._states.get(out_link.name)
        if state is None or packet.kind != PacketKind.DATA:
            out_link.send(packet)
            return
        self._csfq_admit(state, out_link, packet)

    def _csfq_admit(self, state, out_link, packet):
        now = self.sim.now
        label = packet.label
        if packet.count != 1:
            for member in packet.split(self.sim):
                self._csfq_admit(state, out_link, member)
            return
        if state.alpha > 0.0 and label > 0.0:
            prob = max(0.0, 1.0 - state.alpha / label)
        else:
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
            state.overflow_drops += packet.count
            state.alpha *= self.config.overflow_alpha_decay

    def _estimate_alpha(self, state, packet, now, dropped):
        cfg = self.config
        state.arrival.update(now, packet.size)
        if not dropped:
            state.accepted.update(now, packet.size)
        if state.arrival.rate >= state.capacity:
            if not state.congested:
                state.congested = True
                state.window_start = now
                if state.alpha <= 0.0:
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


class _CountingRng(random.Random):
    """Stands in for the RngRegistry: one stream, draws counted."""
    draws = 0

    def stream(self, name):
        return self

    def random(self):
        self.draws += 1
        return super().random()


class _Sink:
    name = "Eout"
    receive = staticmethod(lambda packet, link: None)


class _Rig:
    """One router in front of a 100 pkt/s link with a 2-packet buffer."""

    def __init__(self, router_cls, enable=True):
        self.sim = Simulator()
        self.rng = _CountingRng(7)
        self.router = router_cls("C1", self.sim, CsfqConfig(), self.rng)
        self.out = Link(self.sim, "C1->Eout", "C1", _Sink(), 100.0, 0.001, DropTailQueue(2))
        self.router.set_route("Eout", self.out)
        self.state = self.router.enable_on_link(self.out) if enable else None
        self.sent = []
        send = self.out.send

        def recording(packet):
            self.sent.append((packet.kind, packet.seq, packet.size, packet.label))
            return send(packet)

        # Rebound after ``enable_on_link``, as corebench's tracing rebinds it
        # after ``finalize``: a ``send`` captured earlier would record nothing.
        self.out.send = recording

    def view(self):
        s = self.state
        if isinstance(s, CsfqLinkState):
            rates = (s.arrival_rate, s.arrival_pending, s.arrival_time)
            rates += (s.accepted_rate, s.accepted_pending, s.accepted_time)
        else:
            rates = (s.arrival.rate, s.arrival._pending, s.arrival._last_time)
            rates += (s.accepted.rate, s.accepted._pending, s.accepted._last_time)
        window = (s.alpha, s.tmp_alpha, s.congested, s.window_start)
        counts = (s.prob_drops, s.overflow_drops, s.forwarded, self.rng.draws)
        return window, rates, counts, tuple(self.sent)

    def drive(self, steps):
        """Yield the view after each ``(gap, kind, (mode, value), n)`` step."""
        now, seq = 0.0, 0
        for gap, kind, (mode, value), n in steps:
            now += gap
            self.sim.run(until=now)
            # "x": the label as a multiple of the fair share as it stands.
            label = self.state.alpha * value if mode == "x" else value
            if kind is not DATA:
                packet = Packet(kind, 1, "Ein", "Eout", size=0.0, label=label, sim=self.sim)
            elif n == 1:
                packet = Packet.data(1, "Ein", "Eout", seq, now, label=label, sim=self.sim)
            else:
                packet = PacketTrain(1, "Ein", "Eout", seq, n, now, label, sim=self.sim)
                packet.member_labels = tuple(label * (i + 1) / n for i in range(n))
            seq += n
            self.router.receive(packet, None)
            yield self.view()


def assert_same(steps):
    """Drive both routers; returns the fused rig and its per-step views."""
    fused, oracle = _Rig(CsfqCoreRouter), _Rig(OracleRouter)
    views = []
    for i, (got, want) in enumerate(zip(fused.drive(steps), oracle.drive(steps))):
        assert got == want, f"step {i} {steps[i]}"
        views.append(got)
    return fused, views


DATA = PacketKind.DATA
#: Ties, gaps either side of capacity (10 ms) and of k_window (0.1 s), silences.
GAPS = st.sampled_from([0.0, 0.0, 1e-4, 0.003, 0.02, 0.0999, 0.1, 0.1001, 0.35])
LABELS = st.one_of(
    st.tuples(st.just("="), st.sampled_from([0.0, 3.0, 40.0, 1e3])),
    st.tuples(st.just("x"), st.sampled_from([0.5, 1.0, 1.0000001, 2.0, 8.0])),
)
KINDS = st.sampled_from([DATA] * 6 + [PacketKind.MARKER, PacketKind.LOSS_NOTIFY])
STEPS = st.lists(st.tuples(GAPS, KINDS, LABELS, st.sampled_from([1, 1, 1, 2, 5])), max_size=120)


@settings(max_examples=150, deadline=None)
@given(STEPS)
def test_fused_admission_is_bit_equal_to_the_three_function_chain(steps):
    assert_same(steps)


def test_fixed_schedule_reaches_every_branch():
    """The comparison is not vacuous: cold start, first congestion, both alpha
    windows, coin drops and survivors, overflow decay, a split train."""
    burst = [(0.003, DATA, ("=", 40.0), 1)] * 60  # 333 pkt/s into 100
    quiet = [(0.02, DATA, ("=", 3.0), 1)] * 12  # 50 pkt/s
    rising = [(0.003, DATA, ("=", 9.0 + i), 1) for i in range(60)]  # seeds alpha from a label
    steps = [(0.0, DATA, ("=", 5.0), 1), (0.0, PacketKind.MARKER, ("=", 9.0), 1)] + rising
    steps += [(0.0, DATA, ("x", 2.0), 5), (0.003, DATA, ("x", 1.0), 1)] + quiet
    steps += [(0.35, DATA, ("=", 0.0), 1)] + burst
    fused, views = assert_same(steps)
    state = fused.state
    assert state.overflow_drops > 0 and state.forwarded > 10
    assert fused.rng.draws > state.prob_drops > 10  # some flips let the packet through
    assert any(kind is PacketKind.MARKER for kind, *_ in fused.sent)
    # Relabels: second-burst packets (sent as 40.0) leaving with the fair share.
    assert any(seq > 80 and 0.0 < label < 40.0 for _, seq, _, label in fused.sent)
    flags = [window[2] for window, *_ in views]
    assert flags[0] is False and flags.index(True) < flags.index(True, 80) - 20  # on, off, on
    assert any(rates[1] > 0.0 and rates[4] > 0.0 for _, rates, *_ in views)  # pending load
    assert any(rates[2] != rates[5] for _, rates, *_ in views)  # parted clocks


def test_time_going_backwards_still_raises():
    rig = _Rig(CsfqCoreRouter)
    rig.sim.run(until=1.0)
    rig.state.arrival_time = rig.state.accepted_time = 2.0
    with pytest.raises(SimulationError, match="backwards"):
        rig.router.receive(Packet.data(1, "Ein", "Eout", 0, 1.0, label=5.0), None)


def test_fifo_core_never_touches_link_state(monkeypatch):
    """A core with no CSFQ-enabled link (the FIFO scheme) only forwards."""
    monkeypatch.delattr(CsfqCoreRouter, "_csfq_admit")
    monkeypatch.delattr(CsfqLinkState, "__init__")
    rig = _Rig(CsfqCoreRouter, enable=False)
    for seq in range(5):
        rig.router.receive(Packet.data(1, "Ein", "Eout", seq, 0.0, label=50.0), None)
    assert rig.router.enabled_links() == () and rig.router.state_for(rig.out.name) is None
    assert [label for *_, label in rig.sent] == [50.0] * 5 and rig.rng.draws == 0
