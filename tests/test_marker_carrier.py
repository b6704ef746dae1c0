"""A marker is a field on its data packet: marker conservation.

The ingress edge writes each due marker into its data packet
(``origin_edge`` / ``label``), and the link or router parts the two only
where a trailing marker would have fared differently from its data packet
(``repro.sim.link``, *Markers aboard*).  Every cloud kind's run under that
rule is a row of the contract table (``tests/contract``); here "never lost
with its data packet" is an invariant: in every mode, once the flows have
stopped and the network has drained, each egress has counted exactly the
markers its ingress injected.
"""

from __future__ import annotations

import pytest

from repro.core.config import CoreliteConfig
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec


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


def _markers(clouds):
    """Markers injected at each ingress and received at each egress, by flow."""
    injected, received = {}, {}
    for cloud in clouds:
        for edge in cloud.edges.values():
            for fid in edge.ingress_flow_ids():
                injected[fid] = edge._ingress_state(fid).injector.markers_emitted
            for fid, slot in edge._egress_index.items():
                received[fid] = edge._egress_flows[slot].markers_received
    return injected, received


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
    injected, received = _markers(clouds)
    assert sum(injected.values()) > 300
    assert received == injected
