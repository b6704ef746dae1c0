"""The contract table: one golden row per (cloud factory x surviving mode).

The reproduction's contract is "the default path replays byte-identical per
seed; opt-in paths are pinned".  Each row of ``golden.json`` runs one cloud
below in one mode and records:

* ``digest``: SHA-256 of everything the run produced, namely the
  ``result_to_payload`` of its result, each link's ``dropped_data`` /
  ``failure_drops`` / ``inflight_drops``, the dynamics events applied and
  every ingress flow's final allotted rate;
* ``events``: events executed; ``sends``: calls to a link's ``send``;
  ``pids``: packet ids allocated.

The counts sit beside the digest, not inside it, so a failing row names what
moved: results, event structure or allocation.  Regenerate the file with
``python -m tests.contract --cause "<why>"``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.aqm.red import RedQueue
from repro.aqm.wfq import WfqQueue
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.experiments.builder import CloudBuilder
from repro.experiments.parallel import result_to_payload
from repro.experiments.scenario_dsl import build_network
from repro.experiments.scenarios import (
    WEIGHTS_41,
    mesh_flows,
    parking_lot_flows,
    topology1_flows,
)
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.sources import SourceSpec

from ..conftest import flow_scaling_cloud

GOLDEN_PATH = Path(__file__).with_name("golden.json")
FIELDS = ("digest", "events", "sends", "pids")
#: The fields an exact fast path keeps (it may take fewer events).
EXACT = ("digest", "sends", "pids")
SCENARIO_DIR = Path(__file__).parents[2] / "examples" / "scenarios"

#: Mode name -> the builder keywords it adds.
MODES = {
    "default": {},
    "vectorized": {"vectorized": True},
    "vectorized-train-8": {"vectorized": True, "train_batch": 8},
}


def _cloud(spec, flows, until, seed, scheme="corelite", **fixed):
    """A factory: ``make(**mode)`` builds ``flows`` on ``spec`` -> (cloud, until)."""

    def make(**mode):
        builder = CloudBuilder(spec, scheme=scheme, seed=seed, **fixed, **mode)
        builder.add_flows(flows)
        return builder.build(), until

    return make


def _flow_scaling(flows, until):
    return lambda **mode: (flow_scaling_cloud("corelite", flows, **mode), until)


def _failover_mesh():
    with open(SCENARIO_DIR / "failover_mesh.json", encoding="utf-8") as fh:
        return build_network(json.load(fh)), 60.0  # the A-B link fails at t = 40


def _parking_lot_aggregate():
    """Flow 2 is an ``aggregate:4`` bucket, so multi-hop buckets stay pinned."""
    flows = parking_lot_flows()
    flows[1] = dataclasses.replace(flows[1], aggregate=4)
    return flows


def _fails(a, b, down, up):
    return (
        NetworkEvent(time=down, kind="link_down", a=a, b=b),
        NetworkEvent(time=up, kind="link_up", a=a, b=b),
    )


_CHAIN4 = (TopologySpec.chain(4), topology1_flows(WEIGHTS_41, {}), 12.0, 3)
_SMALL_BUFFERS = [
    FlowPathSpec(
        fid, weight=1.0 + fid % 2, ingress_core="C1" if fid % 3 else "C2", egress_core="C3"
    )
    for fid in range(1, 9)
]
_SIX_WEIGHTED = [FlowPathSpec(fid, weight=float((fid + 1) // 2)) for fid in range(1, 7)]

#: Backlogged, deposit-fed (under its allowed rate: it runs dry), external
#: (TCP), a ``min_rate`` contract, sub-unit weights (several markers owed
#: per packet) and on/off, over a bottleneck that drops; with
#: trains, they slow-start up to whole batches (so accrual meets the
#: bucket's cap) into a buffer they fit in.
_EVERY_FLOW_KIND = [
    FlowPathSpec(1, weight=1.0),
    FlowPathSpec(2, weight=1.0, source=SourceSpec(kind="poisson", mean_rate=15.0)),
    FlowPathSpec(4, weight=1.0, transport="tcp"),
    FlowPathSpec(5, weight=1.0, min_rate=60.0),
    FlowPathSpec(6, weight=0.4),
    FlowPathSpec(7, weight=0.3, schedule=((1.0, 4.0), (5.0, 9.0))),
]

#: Every cloud kind a Corelite run can take, and the CSFQ and failure clouds.
CLOUDS = {
    "chain4-selective": _cloud(*_CHAIN4),
    "chain4-marker-cache": _cloud(
        *_CHAIN4, config=CoreliteConfig(feedback_scheme=FeedbackScheme.MARKER_CACHE)
    ),
    "parking-lot": _cloud(TopologySpec.parking_lot(3), parking_lot_flows(), 10.0, 5),
    "mesh": _cloud(TopologySpec.mesh(), mesh_flows(), 10.0, 2),
    # Equal-cost spines, 4-packet flowlets, marker intervals 1..3: a marker
    # trailing the packet that closes a flowlet takes the next one's path.
    "leaf-spine-flowlets": _cloud(
        TopologySpec.leaf_spine(
            leaves=2, spines=2, routing_mode="ecmp_flowlet", ecmp_flowlet_n_packets=4
        ),
        [
            FlowPathSpec(fid, weight=1.0 + fid % 3, ingress_core="L1", egress_core="L2")
            for fid in range(1, 9)
        ],
        10.0,
        3,
    ),
    "flow-scaling-256": _flow_scaling(256, 8.0),
    "small-buffers": _cloud(
        TopologySpec.chain(3, capacity_pps=120.0, queue_capacity=3.0),
        _SMALL_BUFFERS,
        12.0,
        9,
        config=CoreliteConfig(qthresh=1.0),
    ),
    "failover-mesh": _failover_mesh,
    "red": _cloud(
        TopologySpec.chain(2, capacity_pps=200.0),
        _SIX_WEIGHTED,
        10.0,
        4,
        queue_factory=lambda: RedQueue(capacity=40.0),
    ),
    "wfq": _cloud(
        TopologySpec.chain(2, capacity_pps=200.0),
        _SIX_WEIGHTED,
        10.0,
        4,
        queue_factory=lambda: WfqQueue(
            capacity=40.0, weight_of=lambda fid: float((fid + 1) // 2)
        ),
    ),
    "tcp": _cloud(
        TopologySpec.chain(2, capacity_pps=300.0),
        [
            FlowPathSpec(1, weight=1.0, transport="tcp"),
            FlowPathSpec(2, weight=2.0, transport="tcp"),
            FlowPathSpec(3, weight=1.0),
        ],
        20.0,
        6,
    ),
    "min-rate-contract": _cloud(
        TopologySpec.chain(2, capacity_pps=300.0),
        [
            FlowPathSpec(1, weight=1.0, min_rate=120.0),
            FlowPathSpec(2, weight=1.0),
            FlowPathSpec(3, weight=2.0),
        ],
        15.0,
        8,
    ),
    "every-flow-kind": _cloud(
        TopologySpec.chain(2, capacity_pps=320.0, queue_capacity=12.0),
        _EVERY_FLOW_KIND,
        10.0,
        11,
        config=CoreliteConfig(qthresh=3.0, ss_thresh=256.0),
    ),
    "chain4-csfq": _cloud(*_CHAIN4, scheme="csfq"),
    "chain2-csfq": _cloud(
        TopologySpec.chain(2),
        [
            FlowPathSpec(1, weight=2.0, ingress_core="C1", egress_core="C2"),
            FlowPathSpec(2, weight=1.0, ingress_core="C1", egress_core="C2"),
        ],
        12.0,
        1,
        scheme="csfq",
    ),
    "mesh-csfq": _cloud(TopologySpec.mesh(), mesh_flows(), 10.0, 2, scheme="csfq"),
    "parking-lot-aggregate": _cloud(
        TopologySpec.parking_lot(3), _parking_lot_aggregate(), 10.0, 5
    ),
    "parking-lot-aggregate-csfq": _cloud(
        TopologySpec.parking_lot(3), _parking_lot_aggregate(), 10.0, 5, scheme="csfq"
    ),
    "flow-scaling-512": _flow_scaling(512, 4.0),
    "chain3-failure": _cloud(
        TopologySpec.chain(3, events=_fails("C1", "C2", 6.0, 12.0)),
        [
            FlowPathSpec(1, weight=1.0, ingress_core="C1", egress_core="C3"),
            FlowPathSpec(2, weight=2.0, ingress_core="C2", egress_core="C3"),
        ],
        20.0,
        5,
    ),
    # Epoch parking together with a failure on a parked-adjacent hop.
    "parking-lot-failure": _cloud(
        TopologySpec.parking_lot(hops=3, events=_fails("C2", "C3", 8.0, 14.0)),
        parking_lot_flows(hops=3),
        24.0,
        11,
    ),
}

#: Clouds pinned in the opt-in modes only.
_OPT_IN_ONLY = ("chain4-csfq", "parking-lot-aggregate", "parking-lot-aggregate-csfq")

#: Row name -> (cloud, mode).
ROWS = {f"{cloud}/default": (cloud, "default") for cloud in CLOUDS if cloud not in _OPT_IN_ONLY}
ROWS.update(
    (f"{cloud}/{mode}", (cloud, mode))
    for cloud in ("chain4-selective", "every-flow-kind", *_OPT_IN_ONLY)
    for mode in ("vectorized", "vectorized-train-8")
)


def fingerprint(cloud, result) -> str:
    """SHA-256 of what a run produced (the module docstring lists it)."""
    links = sorted(cloud.topology.links.items())
    applied = () if cloud.dynamics is None else cloud.dynamics.applied
    produced = {
        "payload": result_to_payload(result),
        "links": [
            [name, link.queue.stats.dropped_data, link.failure_drops, link.inflight_drops]
            for name, link in links
        ],
        "applied": [[time, event.kind, *event.pair] for time, event in applied],
        "allotted": [
            [name, fid, edge.allotted_rate(fid)]
            for name, edge in sorted(cloud.edges.items())
            for fid in edge.ingress_flow_ids()
        ],
    }
    return hashlib.sha256(json.dumps(produced, sort_keys=True).encode()).hexdigest()


def run_row(name: str) -> dict:
    """Run one row; its four fields."""
    cloud_name, mode = ROWS[name]
    return replay(*CLOUDS[cloud_name](**MODES[mode]))


def replay(cloud, until, sample_interval=1.0, schedule=None) -> dict:
    """Run a built cloud to ``until``; the four fields of a row.
    ``schedule(cloud)`` adds events before the run."""
    # ``send`` is rebound per link once finalize has settled, as the
    # benchmark's tracer does: a router that captured it earlier sends
    # uncounted, and the row says so.
    cloud.finalize()
    sends = [0]

    def counted(send):
        def counting(packet, *at):  # ``at``: a hop handed over ahead ("Pass-through")
            sends[0] += 1
            return send(packet, *at)

        return counting

    for link in cloud.topology.links.values():
        link.send = counted(link.send)
    if schedule is not None:
        schedule(cloud)
    result = cloud.run(until=until, sample_interval=sample_interval)
    return {
        "digest": fingerprint(cloud, result),
        "events": cloud.sim.events_executed,
        "sends": sends[0],
        "pids": cloud.sim._next_pid,
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def dump_golden(cause: str, rows: dict) -> str:
    """The file's text: one row per line, so a diff shows the rows that moved."""
    lines = [f"  {json.dumps(name)}: {json.dumps(rows[name])}" for name in sorted(rows)]
    return (
        "{\n"
        f' "cause": {json.dumps(cause)},\n'
        ' "rows": {\n' + ",\n".join(lines) + "\n }\n}\n"
    )

