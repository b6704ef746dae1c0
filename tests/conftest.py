"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from typing import List, Tuple

import pytest

from repro.errors import ConfigurationError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Router
from repro.sim.packet import Packet
from repro.sim.topology import Topology

# The edge cases both schemes' test modules import (failed asserts explain themselves).
pytest.register_assert_rewrite("tests.edge_contract")


class CollectorNode(Router):
    """A router that records everything delivered to it."""

    def __init__(self, name: str, sim: Simulator) -> None:
        super().__init__(name)
        self.sim = sim
        self.received: List[Tuple[float, Packet]] = []

    def receive(self, packet: Packet, link) -> None:
        if packet.dst == self.name:
            self.received.append((self.sim.now, packet))
        else:
            self.forward(packet)

    @property
    def packets(self) -> List[Packet]:
        return [p for _, p in self.received]


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def admitted(monkeypatch) -> Counter:
    """Data packets each link admitted, by link name (a train counts its
    members).  Links count only drops, so this wraps both ``send`` paths;
    links bind them at construction, so build after requesting it."""
    return count_admitted(monkeypatch)


def count_admitted(patch) -> Counter:
    """The ``admitted`` fixture's counter, installed through ``patch``."""
    counts: Counter = Counter()

    def counting(send):
        def wrapped(link, packet, *at):  # ``at``: a hop handed over ahead ("Pass-through")
            before = counts[link.name]
            accepted = send(link, packet, *at)
            # A split re-enters the wrapper per piece; count each once.
            if accepted and packet.size > 0.0 and counts[link.name] == before:
                counts[link.name] += packet.count
            return accepted

        return wrapped

    for name in ("_send_fast", "_send_via_queue"):
        patch.setattr(Link, name, counting(getattr(Link, name)))
    return counts


@pytest.fixture
def line_topology(sim: Simulator):
    """A -> B -> C line with 500 pkt/s, 10 ms links; C collects."""
    topo = Topology(sim)
    a = Router("A")
    b = Router("B")
    c = CollectorNode("C", sim)
    for node in (a, b, c):
        topo.add_node(node)
    topo.add_duplex_link("A", "B", 500.0, 0.010)
    topo.add_duplex_link("B", "C", 500.0, 0.010)
    topo.build_routes()
    return topo, a, b, c


def data_packet(flow_id: int = 1, src: str = "A", dst: str = "C", seq: int = 0, now: float = 0.0):
    return Packet.data(flow_id, src, dst, seq=seq, now=now)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that can import what this
    one can (``repro`` and ``tests.conftest`` included): for checks on a
    whole process — its peak RSS, the modules it ends up importing, its
    exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


# ---------------------------------------------------------------------------
# scale clouds shared by the contract table and the scale tests
# ---------------------------------------------------------------------------

#: Train batch of the aggregated scale rungs.  K = 8 keeps the coalescing
#: burstiness small enough that delivered counts stay within ~5% of the
#: scalar datapath at 4096 flows.
TRAIN_RUNG_BATCH = 8


def flow_scaling_cloud(
    scheme: str,
    flows: int,
    *,
    vectorized: bool = False,
    aggregate: int = 1,
    train_batch: int = 1,
):
    """A 2-core chain with ``flows`` backlogged flows crossing it.

    Core capacity scales with the flow count (8 pkt/s per flow) so the
    per-flow fair share stays in the paper's regime — small rates, many
    flows.  Weights cycle 1..4 like the §4.1 scenarios.  ``aggregate``
    folds every ``aggregate`` member flows into one bucket (``flows`` must
    divide evenly), keeping the same total weight profile: bucket ``b``
    carries the weight class ``1 + (b % 4)`` for all of its members.

    The contract table's ``flow-scaling-256`` and ``flow-scaling-512`` rows
    pin this exact recipe (seed 0 included); corebench's ``workloads.py``
    carries its own copy so that neither moves with the other.
    """
    if aggregate < 1 or flows % aggregate:
        raise ConfigurationError(
            f"aggregate ({aggregate}) must divide the flow count ({flows})"
        )
    spec = TopologySpec.chain(
        2, capacity_pps=8.0 * flows, name=f"flow-scaling-{flows}"
    )
    builder = CloudBuilder(
        spec,
        scheme=scheme,
        seed=0,
        vectorized=vectorized,
        train_batch=train_batch,
    )
    for fid in range(1, flows // aggregate + 1):
        builder.add_flow(
            FlowPathSpec(
                fid,
                weight=1.0 + (fid % 4),
                ingress_core="C1",
                egress_core="C2",
                aggregate=aggregate,
            )
        )
    return builder.build()


def pdes_scaling_builder(flows: int, partitions: int, scheme: str = "corelite") -> CloudBuilder:
    """An 8-core chain workload built to partition evenly (``dense_scalar``'s
    shape, scaled to ``flows``; serial at ``partitions = 1``).

    Four two-core groups each carry a quarter of the local flows
    (``C1->C2``, ``C3->C4``, ``C5->C6``, ``C7->C8``), plus ``flows/16``
    cross flows spanning ``C1->C8`` so every cut carries real traffic and
    cross-partition feedback.  The automatic partitioner splits the chain
    into equal halves (or the four pairs) with all cut links at the
    chain's uniform propagation delay, so the conservative window equals
    one link delay and per-partition load is balanced.  ``flows`` is a
    multiple of 16.
    """
    spec = TopologySpec.chain(
        8, capacity_pps=8.0 * (flows // 4), name=f"pdes-scaling-{flows}"
    )
    builder = CloudBuilder(spec, scheme=scheme, seed=0, partitions=partitions)
    cross = flows // 16
    fid = 0
    for index in range(flows - cross):
        fid += 1
        group = index % 4
        builder.add_flow(
            FlowPathSpec(
                fid,
                weight=1.0 + (fid % 4),
                ingress_core=f"C{2 * group + 1}",
                egress_core=f"C{2 * group + 2}",
            )
        )
    for _ in range(cross):
        fid += 1
        builder.add_flow(
            FlowPathSpec(
                fid, weight=1.0 + (fid % 4), ingress_core="C1", egress_core="C8"
            )
        )
    return builder
