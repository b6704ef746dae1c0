"""Shaper releases (``repro.core.shaping``, "Releases"): a flow whose rate is
fixed until its edge's next epoch runs every firing due before that instant in
one frame, with the clock set to each firing's instant, and then parks on that
epoch, which releases it in place.

Drawn clouds meet the per-packet datapath in ``tests/test_reference.py``,
and here one firing per packet alone — every flow's planned ``fence``
withdrawn — with flows and parked shapers counted, so a draw that releases
nothing shows.  Also here: which flows the plan (``repro.experiments.
fastpaths``) makes release candidates, a change the fence missed, the
engine's bound, and a shaper parked on its epoch against one firing per
packet (or per train) on a rig.
"""

import pytest
from hypothesis import given, settings

from repro.aqm.red import RedQueue
from repro.aqm.wfq import WfqQueue
from repro.core.adaptation import Phase
from repro.core.config import CoreliteConfig
from repro.core.edge import CoreliteEdge, FlowAttachment
from repro.core.shaping import PacedSender
from repro.csfq.config import CsfqConfig
from repro.csfq.edge import CsfqEdge
from repro.errors import SimulationError
from repro.experiments import fastpaths
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.queues import DropTailQueue

from .contract import EXACT, replay
from .test_reference import _clouds, _spec

# -- drawn clouds against one firing per packet ------------------------------------


def _released(make, sample_interval, releases):
    """``make()``'s row fields, with the fenced flows and the epochs that
    released a parked shaper (scalar, train) counted after the run."""
    with pytest.MonkeyPatch.context() as patch:
        parked = _counting_epoch_releases(patch)
        cloud, until = make()
        if not releases:
            for edge in cloud.edges.values():
                for state in edge._ingress_flows:
                    state.fence = None
        row = replay(cloud, until, sample_interval)
    row["fenced"] = sum(
        state.pacer.fence is not None
        for edge in cloud.edges.values()
        for state in edge._ingress_flows
    )
    row["parked"], row["parked_trains"] = parked
    return row


@settings(max_examples=50, deadline=None)
@given(_clouds())
def test_releasing_ahead_equals_firing_per_packet(case):
    """The property's draws (``tests/test_reference.py``) with only releases
    switched off.  Flow 1 runs to the end: unless it is a CSFQ bucket (the
    plan makes none a candidate), it releases and parks on its epoch."""
    scheme, train_batch, shape, cores_n, flows, events, sample_interval, buffer, seed = case
    spec = _spec(shape, cores_n, events=events, queue_capacity=buffer)[0]
    config = CoreliteConfig(qthresh=min(8.0, buffer / 2)) if scheme == "corelite" else None

    def make():
        builder = CloudBuilder(
            spec, scheme=scheme, seed=seed, config=config, train_batch=train_batch
        )
        builder.add_flows(flows)
        return builder.build(), 16.0

    released = _released(make, sample_interval, True)
    per_packet = _released(make, sample_interval, False)
    assert {f: released[f] for f in EXACT} == {f: per_packet[f] for f in EXACT}
    assert per_packet["fenced"] == per_packet["parked"] == 0
    assert released["events"] <= per_packet["events"]
    if scheme == "csfq" and flows[0].aggregate > 1:
        return
    assert released["fenced"] > 0, "no flow released: the oracle compared nothing"
    assert released["parked"] > 0, "no epoch released a parked shaper"
    if scheme == "corelite" and train_batch > 1:
        assert released["parked_trains"] > 0, "no epoch released a parked train shaper"



# -- a change the fence missed ------------------------------------------------------


def _one_flow():
    builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite", seed=3)
    builder.add_flow(FlowPathSpec(1, weight=2.0))
    return builder.build(), 12.0


def _stop_mid_epoch(cloud):
    """Stop flow 1 half an edge epoch after its 31st epoch (past slow start,
    which it leaves near 7 s), without registering the instant."""
    edge = cloud.edges[cloud.flows[1].ingress_edge]
    task = edge._epoch_task
    cloud.sim.schedule_at(task.handle.time + 30.5 * task.interval, edge.stop_flow, 1)


def test_a_stop_the_fence_missed_raises():
    """A stop scheduled without registering its instant lands inside a
    released span: the shaper refuses it instead of going back in time."""
    with pytest.raises(SimulationError, match="before its last release"):
        replay(*_one_flow(), schedule=_stop_mid_epoch)


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


def _planned(edge, link, flow_id=1):
    """Plan the rig's objects and start the flow; the fence the plan gave it."""
    fastpaths.plan((link,), (edge,))
    edge.start_flow(flow_id)
    return edge._ingress_state(flow_id).fence


@pytest.mark.parametrize("edge_cls", [CoreliteEdge, CsfqEdge], ids=["corelite", "csfq"])
def test_a_lone_backlogged_flow_releases_once_past_slow_start(edge_cls):
    sim, edge, link = _rig(edge_cls)
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    handle, state = edge._epoch_task.handle, edge._ingress_state(1)
    assert _planned(edge, link) is handle and state.pacer.fence is None
    while state.controller.phase is Phase.SLOW_START:
        sim.run(until=sim.now + edge.config.edge_epoch)
    sim.run(until=sim.now + edge.config.edge_epoch)
    assert state.pacer.fence is handle and state.fence is handle
    edge.stop_flow(1)
    edge.start_flow(1)  # a restart is in slow start again
    assert state.fence is handle and state.pacer.fence is None


@pytest.mark.parametrize(
    "rig, setup",
    [
        ({}, lambda edge, link: edge.attach_flow(FlowAttachment(2, 1.0, "Eout1"))),
        ({"queue": RedQueue(capacity=40.0)}, None),
        ({"queue": WfqQueue(capacity=40.0)}, None),
        ({}, lambda edge, link: link.add_arrival_tap(lambda packet, now: None)),
        ({}, lambda edge, link: link.add_delivery_tap(lambda packet, now: None)),
        ({}, lambda edge, link: link.enable_dynamics()),
        ({}, lambda edge, link: link.add_drop_listener(lambda packet, now: None)),
        ({"far_end": CoreliteEdge("Eout1", Simulator(), CoreliteConfig())}, None),
    ],
    ids=[
        "two-ingress-flows",
        "red-first-hop",
        "wfq-first-hop",
        "arrival-tapped-first-hop",
        "delivery-tapped-first-hop",
        "armed-first-hop",
        "drop-listened-first-hop",
        "first-hop-into-a-sink",
    ],
)
def test_no_fence_where_a_release_could_be_seen(rig, setup):
    sim, edge, link = _rig(**rig)
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    if setup is not None:
        setup(edge, link)
    assert _planned(edge, link) is None


@pytest.mark.parametrize(
    "attachment",
    [
        FlowAttachment(1, 1.0, "Eout1", backlogged=False),
        FlowAttachment(1, 1.0, "Eout1", backlogged=False, external=True),
    ],
    ids=["sourced", "host-fed"],
)
def test_no_fence_for_a_flow_that_is_not_plainly_backlogged(attachment):
    _, edge, link = _rig()
    edge.attach_flow(attachment)
    assert _planned(edge, link) is None


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
    _, edge, link = _rig(**rig)
    edge.attach_flow(attachment)
    assert _planned(edge, link) is edge._epoch_task.handle


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


def _counting_epoch_releases(patch):
    """Patch ``PacedSender.release`` to count, in ``[0]``, the epochs that
    found their shaper parked and, in ``[1]``, those of them whose shaper
    fires trains."""
    parked = [0, 0]
    release = PacedSender.release

    def counting(pacer, epoch):
        if pacer._due is not None:
            parked[0] += 1
            parked[1] += pacer._train_batch > 1
        release(pacer, epoch)

    patch.setattr(PacedSender, "release", counting)
    return parked


def _lone_flow(releases, rates, events=None, until=(6.0,), train_batch=1):
    """Every send (instant, seq, size, members) of a lone flow on the rig's
    first hop, its controller scripted to ``rates``, and the epochs that
    released its parked shaper.  ``events(sim, edge, epochs)`` schedules
    changes before the run, which is split at each instant of ``until``."""
    with pytest.MonkeyPatch.context() as patch:
        parked = _counting_epoch_releases(patch)
        sim, edge, link = _rig(train_batch=train_batch)
        sends = []
        send = link.send

        def recording(packet, *at):  # ``send`` takes an optional instant
            sends.append((sim.now, packet.seq, packet.size, packet.count))
            return send(packet, *at)

        link.send = recording
        edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
        if releases:
            fastpaths.plan((link,), (edge,))
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
    sim, edge, link = _rig()
    edge.attach_flow(FlowAttachment(1, 1.0, "Eout1"))
    _planned(edge, link)
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

