"""A marker is a field on its data packet: oracle and conservation.

The ingress edge used to emit every due marker as a zero-size
:class:`Packet` of its own, right behind the data packet.  It now writes
the marker into that packet (``origin_edge`` / ``label``), and the link or
router parts the two only where a trailing marker would have fared
differently from its data packet (``repro.sim.link``, *Markers aboard*).
The standalone ``_emit`` body is kept here as the oracle: every cloud
below is run once on each representation and everything a run shows —
per-flow results, every allotted rate, every selector, every link's data
counters, the failure drop taxonomy and the executed-event count less the
zero-size deliveries by event — must be equal, floats included.

The second half turns "never lost with its data packet" into an
invariant: in every mode, once the flows have stopped and the network has
drained, each egress has counted exactly the markers its ingress injected.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.red import RedQueue
from repro.aqm.wfq import WfqQueue
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.core.edge import CoreliteEdge
from repro.experiments.builder import CloudBuilder
from repro.experiments.scenario_dsl import build_network
from repro.experiments.scenarios import (
    WEIGHTS_41,
    mesh_flows,
    parking_lot_flows,
    topology1_flows,
)
from repro.experiments.topospec import FlowPathSpec, LinkSpec, TopologySpec
from repro.sim.link import Link
from repro.sim.packet import Packet
from repro.sim.sources import SourceSpec

from .conftest import flow_scaling_cloud

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios")


# -- the old representation, kept as the oracle -----------------------------------


def _emit_standalone(self, state) -> bool:
    """``CoreliteEdge._emit`` as it was: the data packet, then one
    zero-size MARKER packet per due marker behind it."""
    att = state.attachment
    now = self.sim.now
    if state.ext_queue is not None:
        if not state.ext_queue:
            return False
        packet = state.ext_queue.popleft()
    else:
        micro_id = 0
        if state.mux is not None:
            picked = state.mux.pop()
            if picked is None:
                return False
            micro_id = picked
        elif state.backlog is not None:
            if state.backlog < 1:
                return False
            state.backlog -= 1
        packet = Packet.data(
            att.flow_id, self.name, att.dst_edge, seq=state.seq, now=now, sim=self.sim
        )
        packet.micro_id = micro_id
        state.seq += 1
    self.forward(packet)
    if state.rate_estimator is not None:
        state.rate_estimator.update(now, packet.size)
    for _ in range(state.injector.on_data(packet.size)):
        rate = state.controller.rate
        if state.rate_estimator is not None:
            rate = min(rate, state.rate_estimator.rate)
        label = max(0.0, rate - att.min_rate) / att.weight
        self.forward(
            Packet.marker(att.flow_id, self.name, att.dst_edge, label, now, sim=self.sim)
        )
    return True


# -- everything a run shows -------------------------------------------------------


def _selector_state(selector):
    names = ("rav", "wav", "pw", "deficit", "markers_seen", "feedback_sent", "swaps")
    return tuple(getattr(selector, name, None) for name in names)


def _core_link_state(core, link_name):
    """A Corelite core link's selector, or a CSFQ core link's admission state."""
    if not hasattr(core, "machinery_for"):
        state = core.state_for(link_name)
        names = ("arrival_rate", "arrival_time", "arrival_pending", "accepted_rate",
                 "accepted_time", "accepted_pending", "alpha", "tmp_alpha", "congested",
                 "window_start", "prob_drops", "overflow_drops", "forwarded")
        return tuple(getattr(state, name) for name in names)
    return _selector_state(core.machinery_for(link_name).selector)


def _observed(clouds, result):
    """What one run shows, as a dict of comparable sections.  ``clouds`` is
    the serial cloud, or every partition's, of either scheme (a CSFQ cloud
    has no markers)."""
    seen = {
        "flows": {
            fid: (
                record.delivered,
                record.losses,
                tuple(record.rate_series.values),
                tuple(record.throughput_series.values),
                tuple(record.cumulative_series.values),
                tuple(sorted(record.micro_delivered.items())),
            )
            for fid, record in sorted(result.flows.items())
        },
        "total_drops": result.total_drops,
        "dynamics": None
        if result.dynamics is None
        else (result.dynamics["reroutes"], result.dynamics["failure_drops"]),
        "events": [cloud.sim.events_executed for cloud in clouds],
        "rates": {},
        "markers": {},
        "selectors": {},
        "links": {},
        "unrouted": {},
        "tcp": {},
    }
    for cloud in clouds:
        for edge in cloud.edges.values():
            if not isinstance(edge, CoreliteEdge):
                seen["rates"].update((f, edge.allotted_rate(f)) for f in edge.ingress_flow_ids())
                continue
            for fid in edge.ingress_flow_ids():
                seen["rates"][fid] = edge.allotted_rate(fid)
                seen["markers"][fid, "injected"] = edge._ingress_state(
                    fid
                ).injector.markers_emitted
            for fid, slot in edge._egress_index.items():
                seen["markers"][fid, "received"] = edge._egress_flows[slot].markers_received
        for name in cloud.core_names:
            core = cloud.topology.nodes.get(name)
            if core is None:
                continue
            seen["unrouted"][name] = core.unrouted_drops
            for link_name in core.enabled_links():
                seen["selectors"][link_name] = _core_link_state(core, link_name)
        for name, link in cloud.topology.links.items():
            seen["links"][name] = (
                link.queue.stats.dropped_data, link.failure_drops, link.inflight_drops
            )
        for fid, (sender, receiver) in cloud.tcp_hosts.items():
            seen["tcp"][fid] = (sender.timeouts, receiver.delivered, receiver.duplicates)
    return seen


def _run_serial(make):
    cloud, until = make()
    result = cloud.run(until=until)
    return _observed([cloud], result)


def _counting_zero_size_deliveries(run):
    """``run()`` with the zero-size packets delivered by an event counted
    (a booked delivery does not pass ``_deliver_fast``).  Links bind it at
    construction, so it is wrapped before ``run`` builds anything."""
    zero = [0]
    deliver_fast = Link._deliver_fast

    def counting(link, packet):
        zero[0] += packet.size <= 0.0
        deliver_fast(link, packet)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Link, "_deliver_fast", counting)
        seen = run()
    return seen, zero[0]


def both(run):
    """``run()`` on the carrier edge and on the standalone edge, every
    section asserted equal — the events once each run's zero-size
    deliveries by event are taken off: a marker aboard its carrier costs no
    event, a standalone one costs one per hop; everything else is the
    same.  Returns the carrier observation."""
    carrier, carrier_zero = _counting_zero_size_deliveries(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoreliteEdge, "_emit", _emit_standalone)
        standalone, standalone_zero = _counting_zero_size_deliveries(run)
    for section in standalone:
        if section != "events":
            assert carrier[section] == standalone[section], section
    assert sum(carrier["events"]) - carrier_zero == sum(standalone["events"]) - standalone_zero
    return carrier


# -- the clouds -------------------------------------------------------------------


def _chain4(scheme=FeedbackScheme.SELECTIVE):
    builder = CloudBuilder(
        TopologySpec.chain(4), seed=3, config=CoreliteConfig(feedback_scheme=scheme)
    )
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    return builder.build(), 12.0


def _chain4_cache():
    return _chain4(FeedbackScheme.MARKER_CACHE)


def _parking_lot():
    builder = CloudBuilder(TopologySpec.parking_lot(3), seed=5)
    builder.add_flows(parking_lot_flows())
    return builder.build(), 10.0


def _mesh():
    builder = CloudBuilder(TopologySpec.mesh(), seed=2)
    builder.add_flows(mesh_flows())
    return builder.build(), 10.0


def _leaf_spine_flowlets():
    """Equal-cost spines, 4-packet flowlets, marker intervals 1..3: a marker
    trailing the packet that closes a flowlet takes the next one's path."""
    spec = TopologySpec.leaf_spine(
        leaves=2, spines=2, routing_mode="ecmp_flowlet", ecmp_flowlet_n_packets=4
    )
    builder = CloudBuilder(spec, seed=3)
    for fid in range(1, 9):
        builder.add_flow(
            FlowPathSpec(fid, weight=1.0 + fid % 3, ingress_core="L1", egress_core="L2")
        )
    return builder.build(), 10.0


def _flow_scaling_256():
    return flow_scaling_cloud("corelite", 256), 8.0


def _small_buffers():
    spec = TopologySpec.chain(3, capacity_pps=120.0, queue_capacity=3.0)
    builder = CloudBuilder(spec, seed=9, config=CoreliteConfig(qthresh=1.0))
    for fid in range(1, 9):
        builder.add_flow(
            FlowPathSpec(
                fid,
                weight=1.0 + fid % 2,
                ingress_core="C1" if fid % 3 else "C2",
                egress_core="C3",
            )
        )
    return builder.build(), 12.0


def _failover_mesh():
    with open(os.path.join(SCENARIO_DIR, "failover_mesh.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)
    return build_network(scenario), 60.0  # the A-B link fails at t = 40


def _aqm(queue_factory):
    def make():
        builder = CloudBuilder(
            TopologySpec.chain(2, capacity_pps=200.0), seed=4, queue_factory=queue_factory
        )
        for fid in range(1, 7):
            builder.add_flow(FlowPathSpec(fid, weight=float((fid + 1) // 2)))
        return builder.build(), 10.0

    return make


def _red_queue():
    return RedQueue(capacity=40.0)


def _wfq_queue():
    return WfqQueue(capacity=40.0, weight_of=lambda fid: float((fid + 1) // 2))


def _tcp():
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=300.0), seed=6)
    builder.add_flow(FlowPathSpec(1, weight=1.0, transport="tcp"))
    builder.add_flow(FlowPathSpec(2, weight=2.0, transport="tcp"))
    builder.add_flow(FlowPathSpec(3, weight=1.0))
    return builder.build(), 20.0


def _contract():
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=300.0), seed=8)
    builder.add_flow(FlowPathSpec(1, weight=1.0, min_rate=120.0))
    builder.add_flow(FlowPathSpec(2, weight=1.0))
    builder.add_flow(FlowPathSpec(3, weight=2.0))
    return builder.build(), 15.0


def _micro_flows():
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=300.0), seed=10)
    builder.add_flow(
        FlowPathSpec(
            1,
            weight=2.0,
            micro_flows=tuple(
                (mid, SourceSpec(kind="poisson", mean_rate=90.0)) for mid in (1, 2, 3)
            ),
        )
    )
    builder.add_flow(FlowPathSpec(2, weight=1.0))
    builder.add_flow(
        FlowPathSpec(3, weight=1.0, source=SourceSpec(kind="poisson", mean_rate=60.0))
    )
    return builder.build(), 15.0


SERIAL_CLOUDS = {
    "chain4-selective": _chain4,
    "chain4-marker-cache": _chain4_cache,
    "parking-lot": _parking_lot,
    "mesh": _mesh,
    "leaf-spine-flowlets": _leaf_spine_flowlets,
    "flow-scaling-256": _flow_scaling_256,
    "small-buffers": _small_buffers,
    "failover-mesh": _failover_mesh,
    "red": _aqm(_red_queue),
    "wfq": _aqm(_wfq_queue),
    "tcp": _tcp,
    "min-rate-contract": _contract,
    "micro-flow-mux": _micro_flows,
}


@pytest.mark.parametrize("name", sorted(SERIAL_CLOUDS))
def test_carrier_equals_standalone_marker(name):
    seen = both(lambda: _run_serial(SERIAL_CLOUDS[name]))
    injected = sum(v for (_fid, what), v in seen["markers"].items() if what == "injected")
    assert injected > 100, "the cloud carries markers"
    links = seen["links"].values()
    dropped = sum(link[0] for link in links)
    if name == "flow-scaling-256":
        assert dropped == 2730
    elif name == "small-buffers":
        emitted = sum(flow[0] + flow[1] for flow in seen["flows"].values())
        assert dropped > 0.05 * emitted, (dropped, emitted)
    elif name == "failover-mesh":
        assert seen["dynamics"][0] > 0 and sum(link[2] for link in links) > 0
    elif name == "tcp":
        assert all(delivered > 500 for _t, delivered, _d in seen["tcp"].values())


def _inline_chain4():
    builder = CloudBuilder(TopologySpec.chain(4), seed=7)
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    builder.partitions = 2
    builder.pdes_mode = "inline"
    return builder.build_parallel(), 10.0


def _run_partitioned(make):
    parallel, until = make()
    session = parallel.start()
    try:
        result = parallel.execute(session, until)
        return _observed([worker.cloud for worker in session.workers], result)
    finally:
        session.close()


def test_carrier_equals_standalone_marker_across_a_partition_cut():
    seen = both(lambda: _run_partitioned(_inline_chain4))
    assert len(seen["events"]) == 2 and all(seen["events"])
    assert sum(link[0] for link in seen["links"].values()) > 0  # carriers dropped


@settings(max_examples=15, deadline=None)
@given(
    capacities=st.lists(st.sampled_from([30.0, 60.0, 90.0, 150.0]), min_size=1, max_size=3),
    weights=st.lists(
        st.floats(min_value=1.0, max_value=4.0, allow_nan=False), min_size=2, max_size=6
    ),
    buffer=st.sampled_from([2.0, 5.0, 12.0, 40.0]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_carrier_equals_standalone_on_random_chains(capacities, weights, buffer, seed):
    """Random chain capacities x weights x buffer sizes.  Weights stay >= 1:
    a sub-unit marker interval owes extras, which travel standalone ahead of
    the carrier and are not part of this equivalence."""
    cores = tuple(f"C{i}" for i in range(1, len(capacities) + 2))
    spec = TopologySpec(
        links=tuple(
            LinkSpec(a, b, capacity, 0.02)
            for a, b, capacity in zip(cores, cores[1:], capacities)
        ),
        cores=cores,
        queue_capacity=buffer,
        name="random-chain",
    )

    def make():
        # Flows start at 24 pkt/s each, so most draws overrun their buffers.
        config = CoreliteConfig(qthresh=min(8.0, buffer / 2), initial_rate=24.0)
        builder = CloudBuilder(spec, seed=seed, config=config)
        for fid, weight in enumerate(weights, start=1):
            builder.add_flow(
                FlowPathSpec(
                    fid,
                    weight=weight,
                    ingress_core=cores[fid % (len(cores) - 1)],
                    egress_core=cores[-1],
                )
            )
        return builder.build(), 8.0

    both(lambda: _run_serial(make))


# -- marker conservation ----------------------------------------------------------


def _conservation_flows():
    return [
        FlowPathSpec(
            fid,
            weight=1.0 + fid % 3,
            ingress_core="C1" if fid % 2 else "C2",
            egress_core="C4" if fid % 3 else "C3",
            schedule=((0.0, 8.0),),
        )
        for fid in range(1, 11)
    ]


def _conservation_builder(**kw):
    queue_capacity = kw.pop("queue_capacity", 4.0)
    spec = TopologySpec.chain(4, capacity_pps=150.0, queue_capacity=queue_capacity)
    builder = CloudBuilder(spec, seed=12, config=CoreliteConfig(qthresh=2.0), **kw)
    builder.add_flows(_conservation_flows())
    return builder


@pytest.mark.parametrize("mode", ["default", "vectorized", "inline-partitions", "train-8"])
def test_every_marker_injected_reaches_its_egress(mode):
    """Flows stop at t = 8 and the network drains until t = 12: markers
    injected at each ingress == markers received at its egress, buffer drops
    included.  (A dropped *train* takes its markers along, so the train leg
    runs on buffers that drop none.)"""
    if mode == "inline-partitions":
        builder = _conservation_builder()
        builder.partitions = 2
        builder.pdes_mode = "inline"
        parallel = builder.build_parallel()
        session = parallel.start()
        try:
            result = parallel.execute(session, 12.0)
            clouds = [worker.cloud for worker in session.workers]
        finally:
            session.close()
    else:
        kw = {
            "default": {},
            "vectorized": {"vectorized": True},
            "train-8": {"train_batch": 8, "queue_capacity": 400.0},
        }[mode]
        cloud = _conservation_builder(**kw).build()
        result = cloud.run(until=12.0)
        clouds = [cloud]
    drops = result.total_drops
    if mode == "train-8":
        assert drops == 0
    else:
        assert drops > 50, "carriers were dropped"
    markers = _observed(clouds, result)["markers"]
    injected = {fid: n for (fid, what), n in markers.items() if what == "injected"}
    received = {fid: n for (fid, what), n in markers.items() if what == "received"}
    assert sum(injected.values()) > 300
    assert received == injected
