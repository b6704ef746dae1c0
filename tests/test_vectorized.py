"""The batched control plane (``vectorized=True``) and aggregate buckets.

Exact replay pins of the default and batched paths are rows of the contract
table (``tests/contract``).  Here:

* **Batched replay pins** — each batched run named by its old
  (scheme, scenario, train batch) key replays its contract row.
* **Batched vs unbatched** — batching quantizes feedback to core
  epochs, so against the default only the statistical pins apply.
* **Aggregate buckets** — the ``aggregate`` knob end to end (builder and
  scenario DSL).
"""

import pytest

from repro.errors import ConfigurationError, FlowError
from repro.experiments.builder import CloudBuilder
from repro.experiments.scenario_dsl import build_network, run_scenario
from repro.experiments.scenarios import WEIGHTS_41, topology1_flows
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.fairness.metrics import jain_index
from repro.sim.packet import Packet, PacketKind

from .conftest import flow_scaling_cloud
from .contract import FIELDS, load_golden, run_row


# ---------------------------------------------------------------------------
# Batched replay pins
# ---------------------------------------------------------------------------

#: (scheme, scenario, train_batch) -> the contract row that pins it.
_VECTORIZED_ROWS = {
    ("corelite", "chain4", 1): "chain4-selective/vectorized",
    ("corelite", "chain4", 8): "chain4-selective/vectorized-train-8",
    ("corelite", "parking", 1): "parking-lot-aggregate/vectorized",
    ("corelite", "parking", 8): "parking-lot-aggregate/vectorized-train-8",
    ("csfq", "chain4", 1): "chain4-csfq/vectorized",
    ("csfq", "chain4", 8): "chain4-csfq/vectorized-train-8",
    ("csfq", "parking", 1): "parking-lot-aggregate-csfq/vectorized",
    ("csfq", "parking", 8): "parking-lot-aggregate-csfq/vectorized-train-8",
}


@pytest.mark.parametrize(
    "key", sorted(_VECTORIZED_ROWS), ids=lambda key: "-".join(map(str, key))
)
def test_vectorized_replay_fingerprints_unchanged(key):
    """Each batched (scheme x scenario x train batch) run replays the
    golden entry of its contract row, field for field."""
    row = _VECTORIZED_ROWS[key]
    now, pinned = run_row(row), load_golden()["rows"][row]
    moved = {field: (pinned[field], now[field]) for field in FIELDS if now[field] != pinned[field]}
    assert not moved, f"{row}: moved (golden, now): {moved}"


# ---------------------------------------------------------------------------
# Batched vs unbatched equivalence
# ---------------------------------------------------------------------------


def test_vectorized_batched_is_statistically_equivalent():
    """``vectorized=True`` batches the control plane (markers merged
    onto data, feedback coalesced per core epoch), which quantizes
    feedback arrival times — per-flow trajectories drift a few percent,
    but the fairness outcome must be preserved."""
    runs = []
    for vectorized in (False, True):
        builder = CloudBuilder(
            TopologySpec.chain(4), scheme="corelite", seed=3, vectorized=vectorized
        )
        builder.add_flows(topology1_flows(WEIGHTS_41, {}))
        runs.append(builder.run(until=12.0).flows)
    weights = {fid: r.weight for fid, r in runs[0].items()}
    scalar_delivered, vec_delivered = ({fid: r.delivered for fid, r in run.items()} for run in runs)

    scalar_jain = jain_index(
        [scalar_delivered[f] / weights[f] for f in sorted(scalar_delivered)]
    )
    vec_jain = jain_index(
        [vec_delivered[f] / weights[f] for f in sorted(vec_delivered)]
    )
    assert 0.99 <= vec_jain / scalar_jain <= 1.01
    # Aggregate throughput within 5%; individual flows within 10%
    # (measured worst case ~8% on this scenario, driven by the core-epoch
    # quantization of feedback, not by unfairness).
    assert sum(vec_delivered.values()) == pytest.approx(
        sum(scalar_delivered.values()), rel=0.05
    )
    for fid in scalar_delivered:
        assert abs(vec_delivered[fid] - scalar_delivered[fid]) <= (
            0.10 * max(1, scalar_delivered[fid])
        ), fid


# ---------------------------------------------------------------------------
# Batched control plane
# ---------------------------------------------------------------------------


class TestBatchedControl:
    @staticmethod
    def _tiny_vec_cloud():
        # Tight core capacity so the two backlogged flows actually
        # congest the C1->C2 link and the feedback loop engages.
        builder = CloudBuilder(
            TopologySpec.chain(2, capacity_pps=30.0),
            scheme="corelite", seed=0, vectorized=True,
        )
        builder.add_flow(
            FlowPathSpec(1, weight=1.0, ingress_core="C1", egress_core="C2")
        )
        builder.add_flow(
            FlowPathSpec(2, weight=2.0, ingress_core="C1", egress_core="C2")
        )
        return builder.build()

    def test_receive_feedback_counts_batched_seq(self):
        """A batched FEEDBACK packet carries its logical marker count in
        ``seq``; per-marker feedback leaves seq 0 and counts as one."""
        cloud = self._tiny_vec_cloud()
        edge = cloud.edges["Ein1"]
        edge.start_flow(1)

        def feedback(seq, link):
            packet = Packet(
                PacketKind.FEEDBACK, 1, src="C1", dst="Ein1",
                size=0.0, seq=seq, created_at=0.0, sim=cloud.sim,
            )
            packet.feedback_from = link
            return packet

        edge.receive_feedback(feedback(3, "C1->C2"))
        state = edge._ingress_state(1)
        assert state.signal == 3
        # Unbatched feedback (seq 0) from the same link adds one.
        edge.receive_feedback(feedback(0, "C1->C2"))
        assert state.signal == 4
        # The edge reacts to the max over core links, not the sum.
        edge.receive_feedback(feedback(2, "C2->C1"))
        assert state.signal == 4
        assert state.feedback == {"C1->C2": 4, "C2->C1": 2}

    def test_receive_feedback_guards(self):
        cloud = self._tiny_vec_cloud()
        edge = cloud.edges["Ein1"]
        with pytest.raises(FlowError):
            edge.receive_feedback(
                Packet(PacketKind.DATA, 1, src="C1", dst="Ein1", sim=cloud.sim)
            )
        stray = Packet(
            PacketKind.FEEDBACK, 999, src="C1", dst="Ein1",
            size=0.0, sim=cloud.sim,
        )
        before = edge.stray_feedback
        edge.receive_feedback(stray)
        assert edge.stray_feedback == before + 1

    def test_batched_run_closes_the_feedback_loop(self):
        """End to end with ``vectorized=True``: congested cores emit
        (batched) feedback and the edge controllers react to it."""
        cloud = self._tiny_vec_cloud()
        cloud.run(until=8.0)
        emitted = sum(
            cloud.core_router(name).feedback_emitted for name in ("C1", "C2")
        )
        assert emitted > 0
        decreases = sum(
            cloud.edges[name]._ingress_state(fid).controller.decreases
            for name, fid in (("Ein1", 1), ("Ein2", 2))
        )
        assert decreases > 0
        # ...and the weighted outcome is sane: flow 2 (w=2) ends up with
        # the higher allowed rate.
        assert cloud.edges["Ein2"]._ingress_state(2).controller.rate > (
            cloud.edges["Ein1"]._ingress_state(1).controller.rate
        )


# ---------------------------------------------------------------------------
# Aggregate buckets
# ---------------------------------------------------------------------------


class TestAggregateBuckets:
    def test_flow_scaling_cloud_validates_aggregate(self):
        with pytest.raises(ConfigurationError):
            flow_scaling_cloud("corelite", 8, aggregate=0)
        with pytest.raises(ConfigurationError):
            flow_scaling_cloud("corelite", 10, aggregate=4)

    def test_backlogged_bucket_matches_member_flows_statistically(self):
        """16 flows as 4 aggregate-4 buckets vs 16 individual flows: the
        per-weight-class delivered totals must agree within a few percent
        (the bucket controller is the exact N-scaled twin)."""
        def class_totals(aggregate):
            cloud = flow_scaling_cloud(
                "corelite", 16, vectorized=True, aggregate=aggregate
            )
            result = cloud.run(until=12.0)
            totals = {}
            for fid, record in result.flows.items():
                totals.setdefault(record.weight, 0)
                totals[record.weight] += record.delivered
            return totals

        individual = class_totals(1)
        bucketed = class_totals(4)
        # Bucket b carries weight 1 + (b % 4) for 4 members, i.e. weight
        # class w appears with total weight 4w either way.
        assert set(bucketed) == {4.0 * w for w in individual}
        for weight, total in individual.items():
            assert bucketed[4.0 * weight] == pytest.approx(total, rel=0.15)


# ---------------------------------------------------------------------------
# Scenario DSL knobs
# ---------------------------------------------------------------------------


class TestDslKnobs:
    def test_vectorized_and_aggregate_flags(self):
        scenario = {
            "scheme": "corelite",
            "seed": 2,
            "duration": 6.0,
            "vectorized": True,
            "flows": [
                {"id": 1, "weight": 1.0, "aggregate": 3},
                {"id": 2, "weight": 2.0},
            ],
        }
        net = build_network(scenario)
        assert net.flows[1].aggregate == 3
        result = run_scenario(scenario)
        assert result.flows[1].delivered > 0
        assert result.flows[2].delivered > 0

    def test_vectorized_defaults_off(self):
        scenario = {
            "scheme": "corelite",
            "flows": [{"id": 1, "weight": 1.0}],
        }
        build_network(scenario)  # scalar default still builds

    def test_aggregate_validation_via_dsl(self):
        scenario = {
            "scheme": "corelite",
            "flows": [{"id": 1, "weight": 1.0, "aggregate": 0}],
        }
        with pytest.raises(FlowError):
            build_network(scenario)
