"""Shaper releases (``repro.core.shaping``, "Releases"): a flow whose rate is
fixed until its edge's next epoch runs every firing due before that instant in
one frame, with the clock set to each firing's instant, and then parks on that
epoch, which releases it in place.

The oracle is the same run with releases off — ``EdgeRouter._release_fence``
patched to give every flow ``None``, one firing per packet — which must
produce the contract table's fingerprint, link sends and packet ids exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.red import RedQueue
from repro.aqm.wfq import WfqQueue
from repro.core.adaptation import Phase
from repro.core.config import CoreliteConfig
from repro.core.edge import CoreliteEdge, EdgeRouter, FlowAttachment
from repro.core.shaping import PacedSender
from repro.csfq.config import CsfqConfig
from repro.csfq.edge import CsfqEdge
from repro.errors import SimulationError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.queues import DropTailQueue

from .contract import fingerprint

# -- the oracle -----------------------------------------------------------------


def _counting_epoch_releases(patch):
    """Patch ``PacedSender.release`` to count the epochs that found their
    shaper parked; returns the count and, second, how many of those shapers
    fire trains."""
    parked = [0, 0]
    release = PacedSender.release

    def counting(pacer, epoch):
        if pacer._due is not None:
            parked[0] += 1
            parked[1] += pacer._train_batch > 1
        release(pacer, epoch)

    patch.setattr(PacedSender, "release", counting)
    return parked


def _replay(make, releases, schedule=None):
    """Build with ``make()``, run, and return (fingerprint, link sends, packet
    ids, events, fenced flows, result, epochs that released a parked shaper,
    those that released a parked train shaper); ``schedule(cloud)`` adds
    events before the run."""
    with pytest.MonkeyPatch.context() as patch:
        parked = _counting_epoch_releases(patch)
        if not releases:
            patch.setattr(EdgeRouter, "_release_fence", lambda edge, state: None)
        cloud, until = make()
        cloud.finalize()
        sends = [0]

        def counted(send):
            def counting(packet):
                sends[0] += 1
                return send(packet)

            return counting

        for link in cloud.topology.links.values():
            link.send = counted(link.send)
        if schedule is not None:
            schedule(cloud)
        result = cloud.run(until=until)
    fenced = sum(
        state.pacer.fence is not None
        for edge in cloud.edges.values()
        for state in edge._ingress_flows
    )
    return (
        fingerprint(cloud, result),
        sends[0],
        cloud.sim._next_pid,
        cloud.sim.events_executed,
        fenced,
        result,
        parked[0],
        parked[1],
    )


def _assert_releases_replay(make, schedule=None):
    released = _replay(make, True, schedule)
    per_packet = _replay(make, False, schedule)
    assert released[:3] == per_packet[:3], "releasing ahead moved what the run produced"
    assert per_packet[4] == per_packet[6] == per_packet[7] == 0
    assert released[4] > 0, "no flow released: the oracle compared nothing"
    assert released[6] > 0, "no epoch released a parked shaper: its path went unchecked"
    assert released[3] <= per_packet[3]
    return released


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
    seed = draw(st.integers(0, 99))
    return scheme, train_batch, shape, cores_n, tuple(flows), events, seed


@settings(max_examples=50, deadline=None)
@given(_clouds())
def test_releasing_ahead_equals_firing_per_packet(case):
    """Chain, parking-lot and mesh clouds of either scheme, scalar or trains
    of 8, random weights, aggregate buckets of sub-unit members and on/off
    schedules on a 0.1 s grid, at most one link failure and its recovery."""
    scheme, train_batch, shape, cores_n, flows, events, seed = case
    spec = _spec(shape, cores_n, events=events)[0]

    def make():
        builder = CloudBuilder(spec, scheme=scheme, seed=seed, train_batch=train_batch)
        builder.add_flows(flows)
        return builder.build(), 16.0

    released = _assert_releases_replay(make)
    if scheme == "corelite" and train_batch > 1:
        assert released[7] > 0, "no epoch released a parked train shaper"


def test_releasing_in_slow_start_would_reorder_ties():
    """Why a flow releases only past slow start (``EdgeRouter._release_fence``).

    Flows 1 and 2 both pace at the initial rate on the 0.25 s grid, so their
    packets reach C1 at the same instants.  Per packet, the one whose firing
    was armed first goes first; a release sends flow 2's ahead of it.  The
    queue then serves them in the other order: the delays the pair sees move
    (so the digest does), what was sent, delivered and lost does not."""
    flows = [
        FlowPathSpec(1, 0.5, schedule=((2.0, 4.8),)),
        FlowPathSpec(2, 3.0),
        FlowPathSpec(3, 2.0),
    ]

    def make():
        builder = CloudBuilder(TopologySpec.chain(2), seed=82)
        builder.add_flows(flows)
        return builder.build(), 8.0

    def totals(run):
        return [(r.delivered, r.losses) for r in run[5].flows.values()]

    per_packet = _replay(make, False)
    assert _replay(make, True)[:3] == per_packet[:3]
    start_flow = CoreliteEdge.start_flow

    def releasing_at_once(edge, flow_id):
        start_flow(edge, flow_id)
        state = edge._ingress_state(flow_id)
        state.pacer.fence = state.fence

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoreliteEdge, "start_flow", releasing_at_once)
        in_slow_start = _replay(make, True)
    assert in_slow_start[0] != per_packet[0]
    assert in_slow_start[1:3] == per_packet[1:3]
    assert totals(in_slow_start) == totals(per_packet)


# -- a change the fence missed ------------------------------------------------------


def _one_flow():
    builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite", seed=3)
    builder.add_flow(FlowPathSpec(1, weight=2.0))
    return builder.build(), 12.0


def _stop_mid_epoch(fenced):
    """Stop flow 1 half an edge epoch after its 31st epoch (past slow start,
    which it leaves near 7 s), raw or fenced."""

    def schedule(cloud):
        edge = cloud.edges[cloud.flows[1].ingress_edge]
        task = edge._epoch_task
        at = task.handle.time + 30.5 * task.interval
        if fenced:
            cloud.sim.add_fence(at)
        cloud.sim.schedule_at(at, edge.stop_flow, 1)

    return schedule


def test_a_stop_the_fence_missed_raises():
    """A stop scheduled without registering its instant lands inside a
    released span: the shaper refuses it instead of going back in time."""
    with pytest.raises(SimulationError, match="before its last release"):
        _replay(_one_flow, True, _stop_mid_epoch(fenced=False))


def test_a_fenced_stop_replays_per_packet():
    _assert_releases_replay(_one_flow, _stop_mid_epoch(fenced=True))


def test_a_rate_change_before_the_last_release_raises():
    cloud, _ = _one_flow()
    cloud.run(until=1.0)
    edge = cloud.edges[cloud.flows[1].ingress_edge]
    pacer = edge._ingress_state(1).pacer
    pacer._last_emit = cloud.sim.now + 0.01  # as if released past now
    for change in (lambda: pacer.set_rate(1.0), pacer.stop, pacer.kick):
        with pytest.raises(SimulationError, match="before its last release"):
            change()


# -- which flows release ------------------------------------------------------------


class _Core(Node):
    def receive(self, packet, link):
        pass


def _rig(edge_cls=CoreliteEdge, queue=None, far_end=None, **edge_kwargs):
    sim = Simulator()
    config = CsfqConfig() if edge_cls is CsfqEdge else CoreliteConfig()
    edge = edge_cls("Ein1", sim, config, **edge_kwargs)
    queue = DropTailQueue(100) if queue is None else queue
    link = Link(sim, "Ein1->C1", "Ein1", far_end or _Core("C1"), 1_000.0, 0.01, queue)
    edge.set_route("Eout1", link)
    return sim, edge, link


def _fence_of(edge, flow_id=1):
    """What ``_release_fence`` gave the flow when it started."""
    return edge._ingress_state(flow_id).fence


@pytest.mark.parametrize("edge_cls", [CoreliteEdge, CsfqEdge], ids=["corelite", "csfq"])
def test_a_lone_backlogged_flow_releases_once_past_slow_start(edge_cls):
    sim, edge, _ = _rig(edge_cls)
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    edge.start_flow(1)
    state = edge._ingress_state(1)
    handle = edge._epoch_task.handle
    assert state.fence is handle and state.pacer.fence is None
    while state.controller.phase is Phase.SLOW_START:
        sim.run(until=sim.now + edge.config.edge_epoch)
    sim.run(until=sim.now + edge.config.edge_epoch)
    assert state.pacer.fence is handle and state.fence is None
    edge.stop_flow(1)
    edge.start_flow(1)  # a restart is in slow start again
    assert state.fence is handle and state.pacer.fence is None


def _two_ingress_flows(edge, link):
    edge.attach_flow(FlowAttachment(2, 1.0, "Eout1"))
    edge.start_flow(2)
    assert _fence_of(edge, 2) is None


@pytest.mark.parametrize(
    "rig, setup",
    [
        ({}, _two_ingress_flows),
        ({"queue": RedQueue(capacity=40.0)}, None),
        ({"queue": WfqQueue(capacity=40.0)}, None),
        ({}, lambda edge, link: link.add_arrival_tap(lambda packet, now: None)),
        ({}, lambda edge, link: link.add_delivery_tap(lambda packet, now: None)),
        ({}, lambda edge, link: link.enable_dynamics()),
        ({"far_end": CoreliteEdge("Eout1", Simulator(), CoreliteConfig())}, None),
    ],
    ids=[
        "two-ingress-flows",
        "red-first-hop",
        "wfq-first-hop",
        "arrival-tapped-first-hop",
        "delivery-tapped-first-hop",
        "armed-first-hop",
        "first-hop-into-a-sink",
    ],
)
def test_no_fence_where_a_release_could_be_seen(rig, setup):
    sim, edge, link = _rig(**rig)
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    if setup is not None:
        setup(edge, link)
    edge.start_flow(1)
    assert _fence_of(edge) is None


@pytest.mark.parametrize(
    "attachment",
    [
        FlowAttachment(1, 1.0, "Eout1", backlogged=False),
        FlowAttachment(1, 1.0, "Eout1", backlogged=False, external=True),
    ],
    ids=["sourced", "host-fed"],
)
def test_no_fence_for_a_flow_that_is_not_plainly_backlogged(attachment):
    _, edge, _ = _rig()
    edge.attach_flow(attachment)
    edge.start_flow(1)
    assert _fence_of(edge) is None


@pytest.mark.parametrize(
    "rig, attachment",
    [
        ({"train_batch": 8}, FlowAttachment(1, 1.0, "Eout1")),
        ({}, FlowAttachment(1, 2.0, "Eout1", aggregate=4)),
        ({"train_batch": 8}, FlowAttachment(1, 2.0, "Eout1", aggregate=4)),
    ],
    ids=["train-batch-8", "aggregate", "aggregate-train-batch-8"],
)
def test_a_backlogged_train_or_aggregate_flow_takes_the_fence(rig, attachment):
    """A train is a firing, and a bucket's extra markers leave in their
    packet's firing: neither touches anything another event reads."""
    _, edge, _ = _rig(**rig)
    edge.attach_flow(attachment)
    edge.start_flow(1)
    assert _fence_of(edge) is edge._epoch_task.handle


# -- the engine's side ----------------------------------------------------------------


def test_no_release_passes_the_run_bound_or_a_step():
    sim, edge, link = _rig()
    sent = []
    link.add_arrival_tap(lambda packet, now: sent.append(now))  # no fence now
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    edge.start_flow(1)
    edge._ingress_state(1).pacer.fence = edge._epoch_task.handle  # release anyway
    sim.run(until=1.0)
    assert sent and max(sent) <= 1.0 == sim.now
    count = len(sent)
    while sim.step() and sim.now < 1.5:
        assert len(sent) - count <= 1  # a step runs one firing
        count = len(sent)


def test_fence_is_the_earliest_of_the_bound_the_registry_and_the_task():
    sim = Simulator()
    sim.add_fence(3.0)
    sim.add_fence(1.0)
    with pytest.raises(SimulationError):
        sim.add_fence(float("nan"))
    assert sim.fence(2.0) == -float("inf")  # outside run(): no release at all
    seen = []
    sim.schedule_at(0.5, lambda: seen.append(sim.fence(2.0)))
    sim.schedule_at(1.5, lambda: seen.append(sim.fence(2.0)))
    sim.schedule_at(2.5, lambda: seen.append(sim.fence(9.0)))
    sim.schedule_at(3.0, lambda: seen.append(sim.fence(9.0)))
    sim.run(until=4.0)
    assert seen == [1.0, 2.0, 3.0, 3.0]
    with pytest.raises(SimulationError):
        sim.add_fence(3.5)


# -- a shaper parked on its epoch ------------------------------------------------------


class _Scripted:
    """A controller past slow start that takes the next of ``rates`` each
    epoch (and keeps the last)."""

    phase = Phase.LINEAR

    def __init__(self, rates):
        self.rates = list(rates)
        self.rate = self.rates.pop(0)

    def on_epoch(self, feedback, now):
        if self.rates:
            self.rate = self.rates.pop(0)
        return self.rate

    def restart(self, now):
        pass


def _epoch_instants(edge, n):
    """The floats of the edge's next ``n`` epochs, summed as its task re-arms."""
    task = edge._epoch_task
    instants = [task.handle.time]
    while len(instants) < n:
        instants.append(instants[-1] + task.interval)
    return instants


def _lone_flow(releases, rates, events=None, until=(6.0,), train_batch=1):
    """Every send (instant, seq, size, members) of a lone flow on the rig's
    first hop, its controller scripted to ``rates``, and the epochs that
    released its parked shaper.  ``events(sim, edge, epochs)`` schedules
    changes before the run, which is split at each instant of ``until``."""
    with pytest.MonkeyPatch.context() as patch:
        parked = _counting_epoch_releases(patch)
        if not releases:
            patch.setattr(EdgeRouter, "_release_fence", lambda edge, state: None)
        sim, edge, link = _rig(train_batch=train_batch)
        sends = []
        send = link.send

        def recording(packet):
            sends.append((sim.now, packet.seq, packet.size, packet.count))
            return send(packet)

        link.send = recording
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
        edge.start_flow(1)
        edge._ingress_state(1).controller = _Scripted(rates)
        if events is not None:
            events(sim, edge, _epoch_instants(edge, 20))
        for bound in until:
            sim.run(until=bound)
    return sends, parked[0]


def _fenced(sim, t, fn, *args):
    sim.add_fence(t)
    sim.schedule_at(t, fn, *args)


def _stop_and_start_at_epochs(sim, edge, epochs):
    _fenced(sim, epochs[5], edge.stop_flow, 1)
    _fenced(sim, epochs[9], edge.start_flow, 1)


def _stop_and_start_mid_epoch(sim, edge, epochs):
    _fenced(sim, epochs[5] + 0.1, edge.stop_flow, 1)
    _fenced(sim, epochs[9] + 0.2, edge.start_flow, 1)


def _kicks(sim, edge, epochs):
    pacer = edge._ingress_state(1).pacer
    for t in epochs[2:12]:
        _fenced(sim, t + 0.15, pacer.kick)


_VARYING = [20.0, 33.3, 7.7, 51.0, 1.5, 1.5, 26.0, 13.1, 40.0]

#: Train rates: whole trains of 8 (200 pkt/s and up), trains the coalescing
#: horizon cuts short (77, 131) and single packets (15, under one token per
#: horizon), whose next firing can fall past the next epoch.
_TRAIN_VARYING = [200.0, 333.0, 77.0, 510.0, 15.0, 15.0, 260.0, 131.0, 400.0]


@pytest.mark.parametrize(
    "rates, events, until, train_batch",
    [
        ([20.0], None, (6.0,), 1),
        (_VARYING, None, (6.0,), 1),
        ([20.0, 0.0, 0.0, 18.5, 0.0, 40.0], None, (6.0,), 1),
        (_VARYING, _stop_and_start_at_epochs, (6.0,), 1),
        (_VARYING, _stop_and_start_mid_epoch, (6.0,), 1),
        (_VARYING, _kicks, (6.0,), 1),
        (_VARYING, None, "epochs", 1),
        (_VARYING, None, (1.05, 1.62, 2.5, 6.0), 1),
        (_TRAIN_VARYING, None, (6.0,), 8),
        ([200.0, 0.0, 0.0, 185.0, 0.0, 400.0], None, (6.0,), 8),
        (_TRAIN_VARYING, _stop_and_start_mid_epoch, (6.0,), 8),
        (_TRAIN_VARYING, None, (1.05, 1.62, 2.5, 6.0), 8),
    ],
    ids=[
        "rate-held",
        "rate-moves",
        "dormant-and-back",
        "stop-and-start-at-epoch-instants",
        "stop-and-start-mid-epoch",
        "kick-while-parked",
        "runs-ending-on-epoch-instants",
        "runs-ending-mid-epoch",
        "trains-rate-moves",
        "trains-dormant-and-back",
        "trains-stop-and-start-mid-epoch",
        "trains-runs-ending-mid-epoch",
    ],
)
def test_a_parked_shaper_sends_as_a_firing_per_packet(rates, events, until, train_batch):
    """Rates held, moving (1.5 pkt/s pushes the next firing past the next
    epoch: the shaper stays parked through it), 0 and back; stop, start and
    kick; runs split on and between epoch instants; scalar and trains of 8
    (a firing per train)."""
    if until == "epochs":
        sim, edge, _ = _rig()
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
        until = tuple(_epoch_instants(edge, 12)[3::4]) + (6.0,)
    released, parked = _lone_flow(True, rates, events, until, train_batch)
    per_packet, _ = _lone_flow(False, rates, events, until, train_batch)
    assert released == per_packet
    assert len(released) > 40 and parked > 3
    if train_batch > 1:
        assert max(send[3] for send in released) == train_batch


def test_set_rate_gives_a_train_shaper_parked_on_its_epoch_an_armed_shapers_credit():
    """In train mode ``set_rate`` caps the re-priced credit at one token for
    an idle shaper (``PacedSender.kick``) but keeps what an armed one has
    accrued mid-coalesce.  A shaper parked on its epoch holds the firing its
    timer would: it is armed."""

    def shaper(parked):
        sim = Simulator()
        pacer = PacedSender(sim, 40.0, lambda: True, train_batch=8, train_emit=lambda n: n)
        pacer.start()
        sim.run(until=0.06)  # trains of 1 at 0 and of 2 at 0.05; the next is due at 0.1
        if parked:  # as a release leaves it: no timer, the firing's instant in ``_due``
            pacer._due = pacer._handle.time
            pacer._handle.cancel()
            pacer._handle = None
        sim.schedule_at(0.09, pacer.set_rate, 80.0)
        sim.run(until=0.095)
        return pacer

    armed, parked = shaper(False), shaper(True)
    assert armed._credit == parked._credit > 1.0  # 0.04 s at 40 pkt/s accrued
    assert parked._handle is None and parked._due == armed._handle.time


def test_a_parked_shaper_has_no_timer_and_holds_through_kick_and_stop():
    """At 1.5 pkt/s a firing is often due past the next epoch, so a run that
    ends between epochs can leave the shaper parked rather than armed."""
    sim, edge, _ = _rig()
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    edge.start_flow(1)
    state = edge._ingress_state(1)
    state.controller = _Scripted([1.5])
    pacer = state.pacer
    for epoch in _epoch_instants(edge, 20)[4:]:
        sim.run(until=epoch + 0.01)
        if pacer._due is not None:
            break
    assert pacer.fence is edge._epoch_task.handle
    assert pacer._handle is None and pacer._due >= edge._epoch_task.handle.time
    assert not [entry for entry in sim._heap if getattr(entry[3], "__self__", None) is pacer]
    due = pacer._due
    pacer.kick()  # a parked shaper is not an idle one
    assert pacer._handle is None and pacer._due == due
    edge.stop_flow(1)
    assert pacer._due is None and not pacer.running
    seq = state.seq
    sim.run(until=sim.now + 3.0)
    assert state.seq == seq


def test_a_network_event_and_a_flow_on_off_at_epoch_instants_replay_per_packet():
    """A mesh flow whose first core's out-link fails and recovers, and which
    stops and restarts, each at exactly an instant its ingress edge adapts."""

    def build(events=(), schedule=((0.0, float("inf")),)):
        builder = CloudBuilder(TopologySpec.mesh(events=events), scheme="corelite", seed=5)
        builder.add_flow(FlowPathSpec(1, 2.0, "A", "D", schedule=schedule))
        return builder.build()

    probe = build()
    probe.finalize()
    epochs = _epoch_instants(probe.edges[probe.flows[1].ingress_edge], 60)
    events = (
        NetworkEvent(time=epochs[30], kind="link_down", a="A", b="B"),
        NetworkEvent(time=epochs[40], kind="link_up", a="A", b="B"),
    )
    on_off = ((0.0, epochs[34]), (epochs[37], float("inf")))

    def make():
        return build(events, on_off), 26.0

    released = _assert_releases_replay(make)
    assert released[5].dynamics["reroutes"] >= 2
