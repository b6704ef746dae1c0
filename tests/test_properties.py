"""Cross-cutting property-based tests (hypothesis).

Conservation laws and invariants that must hold for *any* workload:
packets are never created or destroyed except by explicit drops, queues
never go negative, schedulers serve in proportion to weights, the engine
executes in time order, and the controllers stay inside their bounds.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.aqm.wfq import WfqQueue
from repro.core.selective_feedback import SelectiveFeedback
from repro.fairness.maxmin import (
    FlowDemand,
    weighted_maxmin,
    weighted_maxmin_with_minimums,
)
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


# ---------------------------------------------------------------------------
# Engine ordering
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_engine_executes_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    # each event fired exactly at its requested time
    assert all(t == pytest.approx(d) for t, d in fired)


# ---------------------------------------------------------------------------
# Queue conservation
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.sampled_from(["push", "pop"]), st.integers(1, 5)),
        min_size=1,
        max_size=300,
    ),
    st.integers(1, 20),
)
@settings(max_examples=50, deadline=None)
def test_droptail_conservation(ops, capacity):
    q = DropTailQueue(capacity)
    seq = pushed = popped = 0
    for op, flow in ops:
        if op == "push":
            pushed += q.push(Packet.data(flow, "A", "B", seq=seq, now=0.0), 0.0)
            seq += 1
        elif q.pop(0.0) is not None:
            popped += 1
    assert pushed == popped + q.occupancy
    assert pushed + q.stats.dropped_data == seq
    assert 0 <= q.occupancy <= capacity


@given(
    st.lists(
        st.tuples(st.sampled_from(["push", "pop"]), st.integers(1, 5)),
        min_size=1,
        max_size=300,
    ),
    st.integers(2, 20),
)
@settings(max_examples=50, deadline=None)
def test_wfq_conservation_and_bounds(ops, capacity):
    weights = {f: float(f) for f in range(1, 6)}
    q = WfqQueue(capacity, weight_of=lambda f: weights[f])
    seq = pushed = popped = 0
    for op, flow in ops:
        if op == "push":
            pushed += q.push(Packet.data(flow, "A", "B", seq=seq, now=0.0), 0.0)
            seq += 1
        elif q.pop(0.0) is not None:
            popped += 1
    assert pushed == popped + q.occupancy + q.stolen
    # A steal books its victim as a drop and admits the arrival.
    assert pushed + q.stats.dropped_data - q.stolen == seq
    assert 0 <= q.occupancy <= capacity
    assert len(q) >= 0


@given(st.lists(st.floats(0.5, 8.0), min_size=2, max_size=6), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_wfq_service_proportional_to_weights(weights, seed):
    """With every flow permanently backlogged, SCFQ service shares match
    the weights for any weight vector."""
    wmap = {i: w for i, w in enumerate(weights, start=1)}
    q = WfqQueue(capacity=10 * len(weights), weight_of=lambda f: wmap[f])
    rng = random.Random(seed)
    served = {f: 0 for f in wmap}
    seq = 0
    rounds = 400
    for _ in range(rounds):
        for f in wmap:
            q.push(Packet.data(f, "A", "B", seq=seq, now=0.0), 0.0)
            seq += 1
        p = q.pop(0.0)
        if p:
            served[p.flow_id] += 1
    total_w = sum(wmap.values())
    total_served = sum(served.values())
    for f, w in wmap.items():
        expected = total_served * w / total_w
        assert served[f] == pytest.approx(expected, abs=max(4.0, 0.12 * expected)), (
            served,
            wmap,
        )


# ---------------------------------------------------------------------------
# Link conservation
# ---------------------------------------------------------------------------


@given(st.integers(1, 200), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_link_conserves_packets(n_packets, capacity):
    sim = Simulator()

    class Sink(Node):
        def __init__(self):
            super().__init__("B")
            self.count = 0

        def receive(self, packet, link):
            self.count += 1

    sink = Sink()
    link = Link(sim, "A->B", "A", sink, 100.0, 0.01, DropTailQueue(capacity))
    for i in range(n_packets):
        link.send(Packet.data(1, "A", "B", seq=i, now=0.0))
    sim.run()
    dropped = link.queue.stats.dropped_data
    assert sink.count + dropped == n_packets
    assert link.queue.occupancy == 0


# ---------------------------------------------------------------------------
# Selective feedback invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(0.1, 100.0), min_size=1, max_size=400),
    st.integers(0, 30),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_selective_feedback_invariants(labels, fn, seed):
    sent = []
    sel = SelectiveFeedback(random.Random(seed), emit=lambda f, e, l: sent.append(l))
    # one warmup epoch to seed wav, then an armed epoch
    for label in labels:
        sel.observe(1, "E", label, 0.0)
    sel.on_epoch(fn, 0.1)
    for label in labels:
        sel.observe(1, "E", label, 0.2)
        assert sel.deficit >= 0
    # never echo more markers than were observed in the armed epoch
    assert len(sent) <= len(labels)
    # every echoed label was at or above the running average at echo time;
    # weaker check (rav moves): echoed labels are never the global minimum
    # unless all labels are equal.
    if sent and len(set(labels)) > 1:
        assert max(sent) >= min(labels)


# ---------------------------------------------------------------------------
# Max-min with minimum contracts
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(0.5, 5.0), min_size=1, max_size=8),
    st.floats(50.0, 1000.0),
    st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_maxmin_with_minimums_honors_contracts(weights, capacity, seed):
    rng = random.Random(seed)
    flows = [FlowDemand(i, w, ("L",)) for i, w in enumerate(weights)]
    # admissible contracts: at most 80% of capacity in total
    budget = 0.8 * capacity
    minimums = {}
    for flow in flows:
        share = rng.uniform(0, budget / len(flows))
        minimums[flow.flow_id] = share
    alloc = weighted_maxmin_with_minimums({"L": capacity}, flows, minimums)
    # contracts honored
    for fid, floor in minimums.items():
        assert alloc[fid] >= floor - 1e-6
    # feasible
    assert sum(alloc.values()) <= capacity * (1 + 1e-6)
    # work conserving: full capacity is handed out (all demands infinite)
    assert sum(alloc.values()) == pytest.approx(capacity, rel=1e-6)


# ---------------------------------------------------------------------------
# Weighted max-min feasibility (reference allocator, arbitrary topologies)
# ---------------------------------------------------------------------------


@st.composite
def _maxmin_instance(draw):
    """A random multi-link network with random flow paths/weights/demands."""
    n_links = draw(st.integers(1, 5))
    capacities = {
        f"L{i}": draw(st.floats(10.0, 1000.0)) for i in range(n_links)
    }
    n_flows = draw(st.integers(1, 8))
    flows = []
    for fid in range(n_flows):
        # a contiguous segment of the link chain (possibly empty path)
        start = draw(st.integers(0, n_links - 1))
        stop = draw(st.integers(start, n_links))
        links = tuple(f"L{i}" for i in range(start, stop))
        demand = draw(
            st.one_of(st.just(math.inf), st.floats(1.0, 500.0))
        )
        if not links and math.isinf(demand):
            demand = draw(st.floats(1.0, 500.0))
        weight = draw(st.floats(0.25, 8.0))
        flows.append(FlowDemand(fid, weight, links, demand))
    return capacities, flows


@given(_maxmin_instance())
@settings(max_examples=100, deadline=None)
def test_maxmin_allocation_never_exceeds_any_link_capacity(instance):
    """The reference allocator always produces a *feasible* allocation:
    on every link, the sum of the rates of the flows crossing it stays
    within the link's capacity, and no flow exceeds its demand."""
    capacities, flows = instance
    alloc = weighted_maxmin(capacities, flows)
    assert set(alloc) == {flow.flow_id for flow in flows}
    for flow in flows:
        assert alloc[flow.flow_id] >= 0.0
        assert alloc[flow.flow_id] <= flow.demand * (1 + 1e-9)
    for link, cap in capacities.items():
        load = sum(
            alloc[flow.flow_id] for flow in flows if link in flow.links
        )
        assert load <= cap * (1 + 1e-9), (link, load, cap)


# ---------------------------------------------------------------------------
# End-to-end packet conservation in a full Corelite network
# ---------------------------------------------------------------------------


class _FlowCountingQueue(DropTailQueue):
    """Drop-tail queue that attributes every data-packet drop to its flow."""

    def __init__(self, capacity: float):
        super().__init__(capacity)
        self.dropped_by_flow = {}

    def push(self, packet, now):
        admitted = super().push(packet, now)
        if not admitted:
            self.dropped_by_flow[packet.flow_id] = (
                self.dropped_by_flow.get(packet.flow_id, 0) + 1
            )
        return admitted


@st.composite
def _small_cloud(draw):
    """A random small Corelite cloud, a datapath mode (default, batched
    control or trains of 8) and a random flow set."""
    num_cores = draw(st.integers(2, 3))
    capacity = draw(st.floats(60.0, 200.0))
    # A Corelite core requires its congestion threshold (qthresh = 8) to sit
    # below each link's queue capacity, so stay above it.
    queue_cap = draw(st.integers(10, 25))
    seed = draw(st.integers(0, 2**16))
    mode = draw(
        st.sampled_from([{}, {"vectorized": True}, {"train_batch": 8}])
    )
    n_flows = draw(st.integers(1, 4))
    flows = []
    for fid in range(1, n_flows + 1):
        pair = draw(
            st.tuples(
                st.integers(1, num_cores), st.integers(1, num_cores)
            ).filter(lambda p: p[0] != p[1])
        )
        flows.append(
            FlowSpec(
                flow_id=fid,
                weight=draw(st.floats(0.5, 4.0)),
                ingress_core=f"C{pair[0]}",
                egress_core=f"C{pair[1]}",
                schedule=((0.0, 4.0),),
            )
        )
    return num_cores, capacity, queue_cap, seed, mode, flows


@given(_small_cloud())
@settings(max_examples=15, deadline=None)
def test_per_flow_packet_conservation(cloud):
    """For any small topology / weight vector, every emitted data packet
    is either delivered at the egress edge or dropped by exactly one
    queue: ``delivered + dropped == injected``, per flow.

    Flows stop at t=4 and the network then drains completely, so there
    is no in-flight remainder to account for.  Queue drops are attributed
    per flow by a recording drop-tail subclass; feedback markers are
    size-0 control packets and never enter the data accounting.
    """
    num_cores, capacity, queue_cap, seed, mode, flows = cloud
    queues = []

    def factory():
        q = _FlowCountingQueue(capacity=float(queue_cap))
        queues.append(q)
        return q

    topology = TopologySpec.chain(
        num_cores, capacity, access_capacity_pps=capacity, queue_capacity=float(queue_cap)
    )
    builder = CloudBuilder(topology, "corelite", seed=seed, queue_factory=factory, **mode)
    net = builder.add_flows(flows).build()
    net.run(until=8.0)  # flows stop at 4.0; 4 s of drain is ample

    for spec in flows:
        fid = spec.flow_id
        emitted = net.edges[spec.ingress_edge]._ingress_state(fid).seq
        delivered = net.edges[spec.egress_edge].delivered(fid)
        dropped = sum(q.dropped_by_flow.get(fid, 0) for q in queues)
        assert emitted == delivered + dropped, (
            fid,
            emitted,
            delivered,
            dropped,
        )
        assert emitted > 0  # the flow really ran

    # no data packet is still buffered anywhere after the drain
    assert all(q.occupancy == 0 for q in queues)
