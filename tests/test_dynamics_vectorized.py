"""PR 6 x PR 7 interaction: topology dynamics on vectorized/aggregated clouds.

The dynamics executor (link failure, recovery, reroute) predates the
array-backed control plane and the aggregated sources, so nothing pins
their interaction: a reroute swaps forwarding tables under flows whose
rate control lives in numpy columns and whose packets come from one
shared aggregate timer chain.  These tests run fail/recover/reroute
schedules on clouds built with ``vectorized=True`` and ``aggregate:N``
buckets, and round-trip such a scenario through the JSON DSL.
"""

from __future__ import annotations

import json

from repro.experiments.builder import CloudBuilder
from repro.experiments.scenario_dsl import build_network, run_scenario
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent


def _vectorized_chain_cloud(events, *, aggregate=4, seed=5):
    """chain(3) carrying two aggregated buckets on the array control plane."""
    spec = TopologySpec.chain(3, events=events)
    builder = CloudBuilder(spec, scheme="corelite", seed=seed, vectorized=True)
    builder.add_flow(FlowPathSpec(
        flow_id=1, weight=1.0, ingress_core="C1", egress_core="C3",
        aggregate=aggregate,
    ))
    builder.add_flow(FlowPathSpec(
        flow_id=2, weight=2.0, ingress_core="C2", egress_core="C3",
        aggregate=aggregate,
    ))
    return builder.build()


def test_failure_and_recovery_on_vectorized_aggregated_cloud():
    """Delivery of an aggregate bucket stops during the outage and
    resumes after recovery — the PR 6 chain test, re-run on the PR 7
    fast path."""
    cloud = _vectorized_chain_cloud((
        NetworkEvent(time=8.0, kind="link_down", a="C1", b="C2"),
        NetworkEvent(time=16.0, kind="link_up", a="C1", b="C2"),
    ))
    result = cloud.run(until=30.0)
    record = result.record(1)
    outage = record.throughput_series.window(10.0, 16.0)
    assert max(outage.values, default=0.0) == 0.0
    recovered = record.throughput_series.window(20.0, 30.0)
    assert min(recovered.values) > 0.0
    # The co-located bucket keeps its weighted share throughout.
    assert result.record(2).delivered > 0
    assert len(result.dynamics["events"]) == 2
    assert cloud.dynamics.failure_drops() > 0


def test_mesh_reroute_moves_aggregated_bucket_onto_detour():
    spec = TopologySpec.mesh(
        events=(NetworkEvent(time=10.0, kind="link_down", a="A", b="B"),)
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=3, vectorized=True)
    builder.add_flow(FlowPathSpec(
        flow_id=1, weight=1.0, ingress_core="A", egress_core="B", aggregate=4,
    ))
    cloud = builder.build()
    before = cloud.flow_path_links(1)
    assert "A->B" in before
    result = cloud.run(until=40.0)
    after = cloud.flow_path_links(1)
    assert "A->B" not in after and len(after) > len(before)
    tail = result.record(1).throughput_series.window(25.0, 40.0)
    assert min(tail.values) > 0.0


# ---------------------------------------------------------------------------
# Scenario-DSL round trip
# ---------------------------------------------------------------------------

_DYNAMIC_VECTORIZED_SCENARIO = {
    "scheme": "corelite",
    "seed": 5,
    "duration": 30.0,
    "vectorized": True,
    "topology": {
        "kind": "chain",
        "num_cores": 3,
        "events": [
            {"time": 8.0, "kind": "link_down", "link": ["C1", "C2"]},
            {"time": 16.0, "kind": "link_up", "link": ["C1", "C2"]},
        ],
    },
    "flows": [
        {"id": 1, "weight": 1, "ingress": "C1", "egress": "C3", "aggregate": 4},
        {"id": 2, "weight": 2, "ingress": "C2", "egress": "C3", "aggregate": 4},
    ],
}


def test_scenario_json_round_trip_preserves_dynamics_and_scale_knobs():
    """Serializing the scenario to JSON and back loses nothing: the
    rebuilt network carries the event schedule, the vectorized flag and
    the aggregate buckets."""
    revived = json.loads(json.dumps(_DYNAMIC_VECTORIZED_SCENARIO))
    assert revived == _DYNAMIC_VECTORIZED_SCENARIO
    net = build_network(revived)
    spec = net.spec
    assert spec.events == (
        NetworkEvent(time=8.0, kind="link_down", a="C1", b="C2"),
        NetworkEvent(time=16.0, kind="link_up", a="C1", b="C2"),
    )
    # The spec itself round-trips through its own dict form too.
    assert TopologySpec.from_dict(spec.to_dict()).events == spec.events


def test_scenario_run_applies_dynamics_on_vectorized_cloud():
    revived = json.loads(json.dumps(_DYNAMIC_VECTORIZED_SCENARIO))
    result = run_scenario(revived)
    assert len(result.dynamics["events"]) == 2
    record = result.record(1)
    outage = record.throughput_series.window(10.0, 16.0)
    assert max(outage.values, default=0.0) == 0.0
    recovered = record.throughput_series.window(20.0, 30.0)
    assert min(recovered.values) > 0.0
    assert result.record(2).delivered > 0
