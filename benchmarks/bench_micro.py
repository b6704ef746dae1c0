"""MICRO — component micro-benchmarks.

Not paper figures: these measure the substrate itself (event-loop
throughput, link forwarding, the CSFQ estimator, the max-min solver) so
performance regressions in the simulator are caught independently of the
paper-claim report (``corelite report``).
"""

import random

import pytest

from repro.fairness.maxmin import FlowDemand, weighted_maxmin
from repro.sim.engine import Simulator
from repro.sim.estimators import ExponentialRateEstimator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue


@pytest.mark.benchmark(group="micro")
def test_event_loop_throughput(benchmark):
    """Schedule-and-run 100k chained events on the no-handle fast path."""

    def run():
        sim = Simulator()
        remaining = [100_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule_fast(0.001, tick)

        sim.schedule_fast(0.001, tick)
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events == 100_000


@pytest.mark.benchmark(group="micro")
def test_event_loop_throughput_cancellable(benchmark):
    """Same chain through ``schedule()`` (EventHandle per event)."""

    def run():
        sim = Simulator()
        remaining = [100_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events == 100_000


@pytest.mark.benchmark(group="micro")
def test_link_forwarding_throughput(benchmark):
    """Push 20k packets through one link."""

    class Sink(Node):
        def __init__(self):
            super().__init__("B")
            self.count = 0

        def receive(self, packet, link):
            self.count += 1

    def run():
        sim = Simulator()
        sink = Sink()
        link = Link(sim, "A->B", "A", sink, 1e6, 0.001, DropTailQueue(30_000))
        for i in range(20_000):
            link.send(Packet.data(1, "A", "B", seq=i, now=0.0, sim=sim))
        sim.run()
        return sink.count

    assert benchmark(run) == 20_000


@pytest.mark.benchmark(group="micro")
def test_rate_estimator_updates(benchmark):
    def run():
        est = ExponentialRateEstimator(k=0.1)
        t = 0.0
        for _ in range(50_000):
            t += 0.002
            est.update(t, 1.0)
        return est.rate

    rate = benchmark(run)
    assert rate == pytest.approx(500.0, rel=0.05)


def _build_cloud(spec, flows):
    from repro.experiments.builder import CloudBuilder

    builder = CloudBuilder(spec, scheme="corelite", seed=0)
    builder.add_flows(flows)
    return builder.build()


@pytest.mark.benchmark(group="micro-harness")
def test_harness_construction_chain(benchmark):
    """Spec -> finalized cloud for the paper's 4-core chain, 20 flows."""
    from repro.experiments.scenarios import WEIGHTS_41, topology1_flows
    from repro.experiments.topospec import TopologySpec

    flows = topology1_flows(WEIGHTS_41, {})
    cloud = benchmark(lambda: _build_cloud(TopologySpec.chain(4), flows))
    assert len(cloud.flows) == 20


@pytest.mark.benchmark(group="micro-harness")
def test_harness_construction_mesh(benchmark):
    """Spec -> finalized cloud for the diamond-plus-chord mesh, 12 flows.

    Compared with the chain bench this isolates the cost of the
    non-chain graph: more core links, Dijkstra over a cyclic topology,
    and the routability check per flow."""
    from repro.experiments.scenarios import mesh_flows
    from repro.experiments.topospec import TopologySpec

    flows = mesh_flows()
    cloud = benchmark(lambda: _build_cloud(TopologySpec.mesh(), flows))
    assert len(cloud.flows) == 12


@pytest.mark.benchmark(group="micro-harness")
def test_harness_run_chain_vs_mesh(benchmark):
    """Wall time of 5 simulated seconds through a built cloud.

    Runs the chain and the mesh back to back in one bench so the
    reported time tracks the end-to-end cost of a spec-built cloud,
    not just its construction.  The work is checked in delivered
    packets: events per packet is what datapath work changes."""
    from repro.experiments.scenarios import mesh_flows, topology1_flows, WEIGHTS_41
    from repro.experiments.topospec import TopologySpec

    chain_flows = topology1_flows(WEIGHTS_41, {})

    def run():
        delivered = 0
        for spec, flows in (
            (TopologySpec.chain(4), chain_flows),
            (TopologySpec.mesh(), mesh_flows()),
        ):
            cloud = _build_cloud(spec, flows)
            delivered += cloud.run(until=5.0).total_delivered()
        return delivered

    assert benchmark(run) > 500


@pytest.mark.benchmark(group="micro")
def test_maxmin_solver(benchmark):
    rng = random.Random(0)
    links = {f"L{i}": rng.uniform(100, 1000) for i in range(20)}
    names = sorted(links)
    flows = [
        FlowDemand(i, rng.uniform(0.5, 5.0), tuple(rng.sample(names, rng.randint(1, 6))))
        for i in range(200)
    ]

    alloc = benchmark(lambda: weighted_maxmin(links, flows))
    assert len(alloc) == 200
