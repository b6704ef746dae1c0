"""The fast paths against the paper's per-packet datapath (``tests/reference.py``).

Four exact fast paths — shaper releases, the egress ledger, idle-epoch
parking and the last core hop handed over at its instant — must leave every
result as the per-packet datapath gives it.  Each
check here runs a cloud with them and inside :func:`~tests.reference.reference`
and compares the contract table's fields (``tests/contract``): the result
fingerprint, link sends and packet ids are equal, and the reference run takes
more events.
"""

from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import CoreliteConfig
from repro.core.router import CoreliteCoreRouter
from repro.core.shaping import PacedSender
from repro.csfq.config import CsfqConfig
from repro.csfq.router import CsfqCoreRouter, CsfqLinkState
from repro.errors import SimulationError
from repro.experiments import fastpaths
from repro.experiments.builder import Cloud, CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.rng import RngRegistry

from .contract import CLOUDS, EXACT, ROWS, load_golden, replay, run_row
from .reference import differential, reference


@pytest.mark.parametrize("row", sorted(ROWS))
def test_row_replays_under_the_reference(row):
    with reference():
        now = run_row(row)
    pinned = load_golden()["rows"][row]
    moved = {field: (pinned[field], now[field]) for field in EXACT if now[field] != pinned[field]}
    assert not moved, f"{row}: moved (golden, reference): {moved}"
    assert now["events"] >= pinned["events"]


def _engaged(cloud_name):
    """Run ``cloud_name``'s contract cloud and check that the plan chose each
    link that opened a ledger, parked a core epoch or handed a hop over, and
    each shaper an epoch released; count them, and the plan's entries."""
    seen = {"booked": set(), "parked": set(), "handed over": set(), "released": set()}
    watch, release = Link.watch_backlog, PacedSender.release

    def watching(link, callback):
        if watch(link, callback):
            seen["parked"].add(link)
            return True
        return False

    def receiving(receive):
        def handing(core, packet, link, at=None):
            if at is not None:
                seen["handed over"].add((link, packet.dst))
            receive(core, packet, link, at)

        return handing

    def releasing(pacer, epoch):
        seen["released"].add(pacer)
        release(pacer, epoch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Link, "watch_backlog", watching)
        patch.setattr(PacedSender, "release", releasing)
        for core_class in (CoreliteCoreRouter, CsfqCoreRouter):
            patch.setattr(core_class, "receive", receiving(core_class.receive))
        cloud, until = CLOUDS[cloud_name]()
        cloud.run(until=until)
    links = cloud.topology.links.values()
    flows = [state for edge in cloud.edges.values() for state in edge._ingress_flows]
    seen["booked"] = {link for link in links if link._booked is not None}
    assert all(link._sink == link.dst.name for link in seen["booked"])
    assert all(link._hold < inf for link in seen["parked"])
    assert all(link._through[dst]._hold < inf for link, dst in seen["handed over"])
    assert all(state.fence for state in flows if state.pacer in seen["released"])
    planned = [link for link in links if link._hold < inf or link._sink or link._through]
    planned += [state for state in flows if state.fence]
    return {path: len(each) for path, each in seen.items()}, planned


_NONE = {"booked": 0, "parked": 0, "handed over": 0, "released": 0}


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_the_plan_is_the_only_gate(name):
    """Every link that opened a ledger, parked its core epoch or handed a hop
    over, and every shaper an epoch released, is one the plan chose; inside
    the reference the plan is empty and nothing engages."""
    _engaged(name)
    with reference():
        assert _engaged(name) == (_NONE, [])


def test_the_reference_turns_every_fast_path_off():
    """On ``chain4-selective``: booked deliveries, released shapers, parked
    core epochs and hops handed over at their instants are all engaged
    without the reference and all absent inside it."""
    assert all(_engaged("chain4-selective")[0].values())
    with reference():
        assert _engaged("chain4-selective")[0] == _NONE


def test_the_reference_turns_the_csfq_hand_over_off():
    """On ``chain2-csfq``: booked deliveries, released shapers and hops handed
    over to a CSFQ core at their instants are engaged without the reference
    and absent inside it (a CSFQ link has no epoch to park)."""
    fast, _ = _engaged("chain2-csfq")
    assert fast["parked"] == 0 and all(fast[k] for k in ("booked", "handed over", "released")), fast
    with reference():
        assert _engaged("chain2-csfq")[0] == _NONE


# -- the property ---------------------------------------------------------------------

_MESH_PAIRS = (("A", "B"), ("B", "D"), ("A", "C"), ("C", "D"), ("B", "C"))


def _spec(shape, cores_n, **kwargs):
    """A ``TopologySpec`` of ``shape``, its cores and its core-to-core pairs."""
    if shape == "mesh":
        return TopologySpec.mesh(**kwargs), ["A", "B", "C", "D"], _MESH_PAIRS
    cores = [f"C{i}" for i in range(1, cores_n + 1)]
    if shape == "chain":
        spec = TopologySpec.chain(cores_n, **kwargs)
    else:
        spec = TopologySpec.parking_lot(cores_n - 1, **kwargs)
    return spec, cores, list(zip(cores, cores[1:]))


@st.composite
def _clouds(draw):
    scheme = draw(st.sampled_from(("corelite", "csfq")))
    train_batch = draw(st.sampled_from((1, 8)))  # Corelite only: inert for CSFQ
    shape = draw(st.sampled_from(("chain", "parking_lot", "mesh")))
    cores_n = draw(st.integers(2, 4))
    _, cores, pairs = _spec(shape, cores_n)
    flows = []
    for fid in range(1, draw(st.integers(1, 4)) + 1):
        ingress, egress = draw(st.permutations(cores))[:2]
        schedule = ((0.0, float("inf")),)
        if fid > 1 and draw(st.booleans()):  # flow 1 lives past slow start
            start = draw(st.integers(0, 30)) / 10
            stop = start + draw(st.integers(20, 120)) / 10
            schedule = ((start, stop),)
            if draw(st.booleans()):
                schedule += ((stop + draw(st.integers(1, 20)) / 10, float("inf")),)
        aggregate = draw(st.sampled_from((1, 1, 3)))
        # A bucket's members weigh under one: each owes a standalone extra
        # marker beside the one its packet carries.
        weights = (0.25, 0.5) if aggregate > 1 else (0.5, 1.0, 2.0, 3.0)
        weight = draw(st.sampled_from(weights))
        flows.append(
            FlowPathSpec(fid, weight, ingress, egress, schedule=schedule, aggregate=aggregate)
        )
    events = ()
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        down = draw(st.integers(40, 120)) / 10
        up = down + draw(st.integers(5, 30)) / 10
        events = (
            NetworkEvent(time=down, kind="link_down", a=a, b=b),
            NetworkEvent(time=up, kind="link_up", a=a, b=b),
        )
    # A 0.01 s sampler is shorter than a 42 ms access hop: reads fall
    # between a delivery's booking and its instant.
    sample_interval = draw(st.sampled_from((0.01, 0.1, 1.0)))
    buffer = draw(st.sampled_from((2.0, 5.0, 12.0, 40.0)))
    seed = draw(st.integers(0, 99))
    return scheme, train_batch, shape, cores_n, tuple(flows), events, sample_interval, buffer, seed


def _bucket(fid, weight, ingress, egress, **kwargs):
    return FlowPathSpec(fid, weight, ingress, egress, aggregate=3, **kwargs)


#: Aggregate CSFQ buckets of three pace on multiples of 3 pkt/s past slow
#: start, so flows that start together fire at equal floats.
_PARKING_LOT_BUCKETS = (
    "csfq", 1, "parking_lot", 2,
    (_bucket(1, 0.25, "C1", "C2"), _bucket(2, 0.25, "C2", "C1"),
     _bucket(3, 0.5, "C1", "C2"), _bucket(4, 0.25, "C1", "C2")),
    (), 1.0, 40.0, 2,
)
_CHAIN_BUCKETS = (
    "csfq", 1, "chain", 2,
    (_bucket(1, 0.25, "C1", "C2"), _bucket(2, 0.25, "C1", "C2", schedule=((2.5, 4.5),)),
     _bucket(3, 0.25, "C1", "C2"), FlowPathSpec(4, 0.5, "C1", "C2")),
    (), 1.0, 40.0, 12,
)


@settings(max_examples=50, deadline=None)
@given(_clouds())
@example(_PARKING_LOT_BUCKETS)
@example(_CHAIN_BUCKETS)
def test_the_fast_paths_equal_the_reference(case):
    """Chain, parking-lot and mesh clouds of either scheme, scalar or trains
    of 8, random weights, aggregate buckets of sub-unit members and on/off
    schedules on a 0.1 s grid, at most one link failure and its recovery,
    buffers from 2 packets to 40 and samplers from 10 ms to 1 s."""
    scheme, train_batch, shape, cores_n, flows, events, sample_interval, buffer, seed = case
    spec = _spec(shape, cores_n, events=events, queue_capacity=buffer)[0]
    config = CoreliteConfig(qthresh=min(8.0, buffer / 2)) if scheme == "corelite" else None

    def make():
        builder = CloudBuilder(
            spec, scheme=scheme, seed=seed, config=config, train_batch=train_batch
        )
        builder.add_flows(flows)
        return builder.build(), 16.0

    differential(make, sample_interval)



def test_an_unparked_core_link_holds_the_selector_of_one_never_parked():
    """C1->C2 idles from 6 s to 9 s, parks its epoch timer and unparks when
    the flows come back; the unpark replays the skipped epochs into the
    selector (``CoreliteCoreRouter._unpark``).  A replay one epoch off moves
    ``wav`` by parts in a million, which the results do not show yet."""

    def selector():
        builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=40.0), seed=3)
        for fid, weight in ((1, 1.0), (2, 2.0)):
            builder.add_flow(FlowPathSpec(fid, weight, schedule=((0.0, 6.0), (9.0, inf))))
        cloud = builder.build()
        cloud.run(until=16.0)
        machinery = cloud.core_router("C1").machinery_for("C1->C2")
        names = ("rav", "wav", "pw", "deficit", "_epoch_marker_count")
        return machinery.parked, [getattr(machinery.selector, n) for n in names]

    unparks = []
    with pytest.MonkeyPatch.context() as patch:
        unpark = CoreliteCoreRouter._unpark
        patch.setattr(CoreliteCoreRouter, "_unpark", lambda *a: unparks.append(unpark(*a)))
        fast = selector()
    with reference():
        slow = selector()
    assert unparks and fast == slow


# -- the pass-through's guards, one rig each ------------------------------------------


class _Sink(Node):
    """An egress that only records ``(seq, size, label, instant)``, as a
    Corelite edge does: a quiet sink, its booked deliveries settled before an
    event's."""

    quiet_sink = True

    def __init__(self, sim):
        super().__init__("Eout")
        self.sim = sim
        self.got = []

    def receive(self, packet, link, at=None):
        if at is None:
            if self.inbox:
                self.sim.settle(self.inbox)
            at = self.sim.now
        self.got.append((packet.seq, packet.size, packet.label, at))


def _hop(
    script, until, bandwidth=40.0, egress_bandwidth=None, egress_capacity=40.0,
    scheme="corelite",
):
    """``C1 -> C2 -> Eout``: a core link feeding a Corelite (or CSFQ) core
    whose one egress link, planned as the builder plans it, leads to a quiet
    sink.  ``script(sim, send, feeder, egress)`` drives it before the run to
    ``until`` (``send(t, seq)`` offers the core link a data packet at ``t``,
    with a marker aboard at a Corelite core, labelled ``label``, by default
    ``10 + seq``; ``send(t, seq, alone=True)`` a marker alone) and returns
    what it observed.  Returns that, what the sink got, the egress selector
    as a never-parked link holds it (the CSFQ link state), the egress's
    refusals, and per hop whether it was handed over."""
    sim = Simulator()
    if scheme == "csfq":
        core = CsfqCoreRouter("C2", sim, CsfqConfig(), RngRegistry(0))
    else:
        config = CoreliteConfig(qthresh=0.25)  # below the smallest egress buffer here
        core = CoreliteCoreRouter("C2", sim, config, RngRegistry(0), lambda packet: None)
    sink = _Sink(sim)
    feeder = Link(sim, "C1->C2", "C1", core, bandwidth, 0.3, DropTailQueue(40.0))
    egress = Link(
        sim, "C2->Eout", "C2", sink, egress_bandwidth or bandwidth, 0.01,
        DropTailQueue(egress_capacity),
    )
    core.set_route("Eout", egress)
    machinery = core.enable_on_link(egress)
    fastpaths.plan((feeder, egress), last_hops={egress: feeder}, routes_fixed=True)
    handed = []
    deliver = feeder._deliver_cb

    def delivering(packet, link, *at):
        handed.append((packet.seq, bool(at)))
        deliver(packet, link, *at)

    feeder._deliver_cb = delivering

    def send(t, seq, alone=False, label=None):
        label = 10.0 + seq if label is None else label
        if alone:
            packet = Packet.marker(1, "Ein1", "Eout", label, t, sim=sim)
            packet.seq = seq
        else:
            packet = Packet.data(1, "Ein1", "Eout", seq, t, label=label, sim=sim)
            if scheme != "csfq":
                packet.origin_edge = "Ein1"
        sim.schedule_at(t, feeder.send, packet)

    seen = script(sim, send, feeder, egress)
    sim.run(until=until)
    egress.settle()
    if scheme == "csfq":
        names = [n for n in CsfqLinkState.__slots__ if n not in ("link", "coin")]
        state = [getattr(machinery, n) for n in names]
    else:
        if machinery.parked:
            core._unpark(machinery)  # replays the epochs it skipped
        selector = machinery.selector
        names = ("rav", "wav", "pw", "deficit", "_epoch_marker_count")
        state = [getattr(selector, n) for n in names]
    return seen, sink.got, state, egress.failure_drops, handed


def _guarded(script, until=3.0, **rig):
    """``script`` on the rig with the fast paths and inside the reference:
    the same outcome, and no hop handed over in the reference.  Returns the
    fast run's ``[(seq, handed over)]``, in hop order."""
    *fast, handed = _hop(script, until, **rig)
    with reference():
        *slow, none = _hop(script, until, **rig)
    assert fast == slow
    assert not any(at for _seq, at in none)
    return handed


def test_a_hop_into_a_transmitter_busy_by_one_ulp_is_an_event():
    """Two packets back to back on equal bandwidths: the second reaches the
    egress one ulp before its transmitter frees, so it waits there, which
    unparks the egress epoch at its instant (an epoch later than the
    first), not at its send."""

    def script(sim, send, feeder, egress):
        send(1.665, 0)
        send(1.665, 1)

    assert _guarded(script) == [(0, True), (1, False)]


def test_a_hop_into_an_unparked_egress_is_an_event():
    """Until its first epoch the egress's machinery runs: that epoch falls
    between the first send and its hop, and must not count its marker."""

    def script(sim, send, feeder, egress):
        send(0.0, 0)
        send(1.0, 1)

    assert _guarded(script) == [(0, False), (1, True)]


def test_a_hop_due_past_the_run_bound_is_an_event():
    """A run to 1.9 leaves the hop due at 1.975 an event: between the runs
    the egress has not been sent it (its transmitter frees when the first
    hop's packet is through), as with every hop an event."""

    def script(sim, send, feeder, egress):
        send(1.0, 0)
        send(1.65, 1)
        sim.run(until=1.9)
        return [egress._free_at]

    assert _guarded(script) == [(0, True), (1, False)]


def test_a_hop_behind_one_left_an_event_is_an_event():
    """The egress is still busy with ``Z`` when ``A`` reaches it (an event),
    and ``B`` is sent at ``A``'s instant, before ``A``'s event: handed over,
    ``B`` would take the egress ahead of ``A``."""
    a_due = 1.0 + 1 / 1000.0 + 1 / 1000.0 + 0.3

    def script(sim, send, feeder, egress):
        send(1.0, 0)  # Z
        send(1.0, 1)  # A
        send(a_due, 2)  # B: scheduled before A's hop, so it runs first

    handed = _guarded(script, bandwidth=1000.0, egress_bandwidth=100.0)
    assert handed == [(0, True), (1, False), (2, False)]


def test_a_hop_its_egress_drops_sends_its_marker_on_at_its_instant():
    """Under one packet of buffer the egress drops every data packet handed
    over to it; the marker aboard travels on alone from the hop's instant."""

    def script(sim, send, feeder, egress):
        for seq in range(3):
            send(1.0 + seq, seq)

    handed = _guarded(script, until=6.0, egress_capacity=0.5)
    assert handed == [(0, True), (1, True), (2, True)]


def test_a_marker_alone_is_handed_over_at_its_instant():
    """A marker parted from its carrier, or a bucket's extra one, crosses the
    hop alone: sent on, observed and binned at its own instant."""

    def script(sim, send, feeder, egress):
        for seq in range(3):
            send(1.0 + seq, seq, alone=True)
            send(1.5 + seq, 10 + seq)

    handed = _guarded(script, until=6.0)
    assert handed == [(0, True), (10, True), (1, True), (11, True), (2, True), (12, True)]


def test_a_csfq_hop_is_admitted_at_its_instant_while_its_egress_is_congested():
    """A burst of 15 congests the CSFQ egress link (all but its first are
    events: the egress is busy), which seeds alpha; the lone packets sent
    once the burst's last hop is past are handed over, each admitted at its
    instant: both rate estimators, the end of the congestion, the alpha
    window and a coin per label above alpha."""

    def script(sim, send, feeder, egress):
        for seq in range(15):
            send(1.0, seq, label=10.0)
        for seq in range(15, 30):
            send(1.7 + 0.05 * (seq - 15), seq, label=40.0)

    handed = _guarded(script, bandwidth=1000.0, egress_bandwidth=100.0, scheme="csfq")
    assert [seq for seq, at in handed if at] == [0, *range(15, 30)], handed


def test_a_csfq_hop_its_egress_drops_decays_alpha_at_its_instant():
    """Under one packet of buffer the CSFQ egress drops every packet handed
    over to it: alpha, set as each uncongested window closes at a hop's
    instant, decays there, and the next hops draw coins against it."""

    def script(sim, send, feeder, egress):
        for seq in range(8):
            send(1.0 + 0.25 * seq, seq, label=20.0 + seq % 3)

    handed = _guarded(script, until=6.0, egress_capacity=0.5, scheme="csfq")
    assert all(at for _seq, at in handed) and len(handed) > 4, handed


#: Each build-time change, as one call on a link; a tap or listener calls ``observe``.
_WIRINGS = {
    "drop-listener": Link.add_drop_listener,
    "arrival-tap": Link.add_arrival_tap,
    "delivery-tap": Link.add_delivery_tap,
    "dynamics": lambda link, observe: link.enable_dynamics(),
    "fail": lambda link, observe: link.fail(),
}


def _wiring(link):
    """What a build-time change moves on ``link``."""
    observers = [*link._drop_listeners, *link._arrival_taps, *link._delivery_taps]
    return (
        link.send, link._deliver_cb, link._sink, link._through, link._hold,
        link._dynamic, link.up, link.queue._port, observers,
    )


@pytest.mark.parametrize("when", ["pre-run-send", "mid-run"])
@pytest.mark.parametrize("role", ["sink", "feeder", "egress"])
@pytest.mark.parametrize("change", sorted(_WIRINGS))
def test_a_link_is_wired_before_traffic_flows(change, role, when):
    """Taps, a drop listener and arming (``fail`` arms a link never armed) are
    build-time.  Once traffic has flowed — an event has run (mid-run: here
    after a hop was handed over ahead of the clock), or the link has carried
    a packet (a send before the run) — each raises, naming the link, and
    leaves it as it was: the run equals one where it was never tried.  The
    links are a hand-over's feeder and egress and a link into a quiet sink
    that is neither."""

    def script(attempt):
        def drive(sim, send, feeder, egress):
            sink = Link(sim, "C3->Eout", "C3", _Sink(sim), 40.0, 0.01, DropTailQueue(40.0))
            fastpaths.plan((sink,), last_hops={sink: None})
            link = {"sink": sink, "feeder": feeder, "egress": egress}[role]
            refused = []

            def wire():
                before = _wiring(link)
                with pytest.raises(SimulationError, match=link.name):
                    _WIRINGS[change](link, lambda packet, now: None)
                refused.append(_wiring(link) == before)

            if when == "pre-run-send":
                link.send(Packet.data(3, "C3", "Eout", 0, 0.0, sim=sim))
                if attempt:
                    wire()
            else:
                send(1.0, 0)
                if attempt:
                    sim.schedule_at(1.2, wire)
            send(1.5, 1)
            return refused

        return drive

    refused, *run = _hop(script(attempt=True), 3.0)
    assert refused == [True]
    assert run == list(_hop(script(attempt=False), 3.0))[1:]


#: On ``every-flow-kind``: flow 1's first hop (it releases), the core link
#: feeding its egress (a sink too), and TCP flow 4's egress, only a sink.
_ROLES = {"first-hop": "Ein1->C1", "feeder": "C1->C2", "egress": "C2->Eout1", "sink": "C2->Eout4"}


@pytest.mark.parametrize("role", sorted(_ROLES))
@pytest.mark.parametrize("change", sorted(set(_WIRINGS) - {"fail"}))
def test_wired_after_finalize_equals_wired_before(change, role):
    """Wired after the plan, a tap, drop listener or arming voids the link's
    entries (``Link._wire``): the run — and what the tap or listener sees,
    at which instants — equals the one with it wired before ``finalize``,
    events included, and the reference's, and takes more events than none."""

    def run(wired=True, before=False):
        with pytest.MonkeyPatch.context() as patch:
            if before:
                patch.setattr(Cloud, "finalize", lambda cloud: None)
            cloud, until = CLOUDS["every-flow-kind"]()
        seen = []
        if wired:
            _WIRINGS[change](
                cloud.topology.links[_ROLES[role]],
                lambda p, now: seen.append((p.flow_id, p.seq, p.kind, now, cloud.sim.now)),
            )
        return replay(cloud, until), seen

    after = run()
    assert after == run(before=True)
    with reference():
        row, seen = run()
    assert ({f: row[f] for f in EXACT}, seen) == ({f: after[0][f] for f in EXACT}, after[1])
    assert after[0]["events"] > run(wired=False)[0]["events"]


def test_a_hop_due_past_a_flow_on_off_instant_is_handed_over():
    """No link changes mid-run, so a flow starting or stopping — an
    ``add_fence`` instant, read by shaper releases only — holds back no hop:
    on ``every-flow-kind`` some hop is handed over across one."""
    fences, across = [], []
    add_fence, receive = Simulator.add_fence, CoreliteCoreRouter.receive

    def fencing(sim, time):
        fences.append(time)
        add_fence(sim, time)

    def receiving(core, packet, link, *at):
        if at and any(core.sim.now < fence <= at[0] for fence in fences):
            across.append(packet.pid)
        receive(core, packet, link, *at)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "add_fence", fencing)
        patch.setattr(CoreliteCoreRouter, "receive", receiving)
        cloud, until = CLOUDS["every-flow-kind"]()
        cloud.run(until=until)
    assert fences and across, (fences, across)


def test_a_tcp_flows_egress_link_is_not_handed_over_to():
    """A TCP flow's data is addressed to its receiver host, past its egress
    edge, while its lone markers are addressed to that edge: the data would
    never hold back a marker handed over ahead of it, so the plan does not
    name its egress link (``test_the_plan_is_the_only_gate``: nothing else
    is handed over).  A shaped flow beside it is named."""
    builder = CloudBuilder(TopologySpec.chain(3, capacity_pps=100.0), seed=3)
    builder.add_flow(FlowPathSpec(1, weight=0.25, ingress_core="C1", transport="tcp"))
    builder.add_flow(FlowPathSpec(2, ingress_core="C1"))
    links = builder.build().topology.links
    assert links["C1->C2"]._through == {"Eout2": links["C2->Eout2"]}
