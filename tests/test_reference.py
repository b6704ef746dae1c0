"""The fast paths against the paper's per-packet datapath (``tests/reference.py``).

Three exact fast paths — shaper releases, the egress ledger and idle-epoch
parking — must leave every result as the per-packet datapath gives it.  Each
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
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.engine import Simulator
from repro.sim.link import Link

from .contract import CLOUDS, EXACT, ROWS, load_golden, run_row
from .reference import differential, reference


@pytest.mark.parametrize("row", sorted(ROWS))
def test_row_replays_under_the_reference(row):
    with reference():
        now = run_row(row)
    pinned = load_golden()["rows"][row]
    moved = {field: (pinned[field], now[field]) for field in EXACT if now[field] != pinned[field]}
    assert not moved, f"{row}: moved (golden, reference): {moved}"
    assert now["events"] >= pinned["events"]


def test_the_reference_turns_every_fast_path_off():
    """On ``chain4-selective``: booked deliveries, fenced shapers and parked
    core epochs, each counted where it happens, are all engaged without the
    reference and all absent inside it."""

    def engaged():
        counts = {"booked": 0, "parked": 0}
        book, watch = Simulator.book, Link.watch_backlog

        def booking(sim, ledger, due, packet):
            counts["booked"] += 1
            book(sim, ledger, due, packet)

        def watching(link, callback):
            parked = watch(link, callback)
            counts["parked"] += parked
            return parked

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Simulator, "book", booking)
            patch.setattr(Link, "watch_backlog", watching)
            cloud, until = CLOUDS["chain4-selective"]()
            cloud.run(until=until)
        counts["fenced"] = sum(
            state.pacer.fence is not None
            for edge in cloud.edges.values()
            for state in edge._ingress_flows
        )
        return counts

    fast = engaged()
    with reference():
        slow = engaged()
    assert all(fast.values()), fast
    assert slow == {"booked": 0, "parked": 0, "fenced": 0}


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
