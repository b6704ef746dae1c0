"""PR 7 pins: the batched control plane (``vectorized=True``) and
aggregated sources.

Four layers of protection:

* **Scalar replay fingerprints** — the default build path must stay
  byte-identical to the pre-PR-7 code: same per-flow series, hashed and
  pinned as a *result digest*, with the executed-event count and the
  packet-id counter pinned beside it (a pure event-structure or
  allocation change moves only its count).
* **Batched replay fingerprints** — ``vectorized=True`` runs recorded
  while the array-backed edges (``repro.sim.flowarrays``) still existed;
  deleting them must not move a single delivery, loss or rate, and the
  event count is pinned beside them.
* **Batched vs unbatched** — batching quantizes feedback to core
  epochs, so against the default only the statistical pins apply.
* **Aggregated sources** — ``PacedAggregateSource`` unit behavior and
  the ``aggregate`` knob end to end (builder and scenario DSL).
"""

import dataclasses

import hashlib
import random

import pytest

from repro.errors import ConfigurationError, FlowError
from repro.experiments.builder import CloudBuilder
from repro.experiments.scenario_dsl import build_network, run_scenario
from repro.experiments.scenarios import (
    WEIGHTS_41,
    mesh_flows,
    parking_lot_flows,
    topology1_flows,
)
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.fairness.metrics import jain_index
from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketKind
from repro.sim.sources import PacedAggregateSource, SourceSpec

from .conftest import flow_scaling_cloud


# ---------------------------------------------------------------------------
# Scenario constructors shared by the fingerprint and equivalence tests
# ---------------------------------------------------------------------------


def _chain4_corelite(vectorized=False):
    builder = CloudBuilder(
        TopologySpec.chain(4), scheme="corelite", seed=3,
        vectorized=vectorized,
    )
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    return builder.build(), 12.0


def _chain2_csfq(vectorized=False):
    builder = CloudBuilder(
        TopologySpec.chain(2), scheme="csfq", seed=1,
        vectorized=vectorized,
    )
    builder.add_flow(FlowPathSpec(1, weight=2.0, ingress_core="C1", egress_core="C2"))
    builder.add_flow(FlowPathSpec(2, weight=1.0, ingress_core="C1", egress_core="C2"))
    return builder.build(), 12.0


def _parking_corelite(vectorized=False):
    builder = CloudBuilder(
        TopologySpec.parking_lot(3), scheme="corelite", seed=5,
        vectorized=vectorized,
    )
    builder.add_flows(parking_lot_flows())
    return builder.build(), 10.0


def _mesh_csfq(vectorized=False):
    builder = CloudBuilder(
        TopologySpec.mesh(), scheme="csfq", seed=2,
        vectorized=vectorized,
    )
    builder.add_flows(mesh_flows())
    return builder.build(), 10.0


def _flow_scaling_corelite_256(vectorized=False):
    return flow_scaling_cloud("corelite", 256, vectorized=vectorized), 8.0


SCENARIOS = {
    "chain4_corelite": _chain4_corelite,
    "chain2_csfq": _chain2_csfq,
    "parking_corelite": _parking_corelite,
    "mesh_csfq": _mesh_csfq,
    "flow_scaling_corelite_256": _flow_scaling_corelite_256,
}

#: name -> (sha256 result digest, events executed, packet ids allocated).
#: The digest covers everything a run *produced* — per-flow delivered /
#: losses / rate, throughput and cumulative series — and nothing about how:
#: it is the sha256 of ``repr(payload)`` alone, recorded on 07ecefd, where
#: the older digests (which hashed the packet-id counter, and before
#: 0b2fe4e the event count, into the same blob) still passed.  The default
#: build path must keep reproducing it byte-for-byte.  The event count and
#: the packet-id counter are pinned *beside* it, so a change in event
#: structure, a change in what is allocated and a change in results fail
#: apart.  Counts re-recorded once for the departure-time links (no
#: transmitter wakeups, markers ride their data packet's delivery): 37,473
#: / 885 / 10,393 / 4,055 / 83,868 events before.  Packet ids re-recorded
#: once when a marker became a field of its data packet instead of a
#: packet (the Corelite runs allocated 7,920 / 2,546 / 20,888 before).
#: Event counts (only) of the three Corelite runs re-recorded once when a
#: packet's last hop into its egress edge became a ledger entry instead of
#: an event (``repro.sim.link``, "Sinks"): 23,481 / 6,131 / 57,797 before,
#: the difference being the last-hop delivery events, one for one
#: (``tests/test_egress_ledger.py``).  Event counts (only) of the two CSFQ
#: runs re-recorded once when a CSFQ egress became a quiet sink for every
#: delivery that provably sends nothing (``CsfqEdge.quiet_for``): 877 /
#: 4,001 before, the difference being the in-sequence last-hop deliveries,
#: now booked instead of scheduled.  Event counts (only) of two Corelite
#: runs re-recorded once when a zero-size packet stopped riding the delivery
#: event its link scheduled last (``Packet.trailer``) and took a delivery
#: of its own: 18,625 / 46,312 before, the difference being the markers
#: parted from dropped carriers that used to ride.
FINGERPRINTS = {
    "chain4_corelite": (
        "83f1678124a279e88257a09c6996cf2f16a516b06694bc1e211accca16d3fdf7",
        18634,
        5254,
    ),
    "chain2_csfq": (
        "20ddf6011d218f665eb00667e66d2d80e6aa986144c0490344f1cb18aa5ac853",
        711,
        213,
    ),
    "parking_corelite": (
        "b5708b8a13daa4603f51b894ef86db534887ac454aa50d3c5abeef5408ea8ef2",
        4840,
        1337,
    ),
    "mesh_csfq": (
        "c989e42ff308ad7c2a81cf9e14f8b70ebc3f867399b0f3d2920007dc7803f95c",
        3284,
        939,
    ),
    "flow_scaling_corelite_256": (
        "107d07ea546d869bd06e4c7191c45dec6c2b43bc5c291dd0fe0081f46d81710b",
        47488,
        16216,
    ),
}


def _run_and_fingerprint(cloud, until):
    """Run the cloud; returns ``((result digest, events executed, packet
    ids allocated), delivered, weights)``.  The digest hashes everything
    replay-relevant that is a *result*: the sorted per-flow
    delivery/loss/series tuples.  The executed-event count and the
    simulator's packet-id counter travel beside it, not inside it."""
    result = cloud.run(until=until)
    payload = []
    for flow_id, record in sorted(result.flows.items()):
        payload.append(
            (
                flow_id,
                record.delivered,
                record.losses,
                tuple(record.rate_series.values),
                tuple(record.throughput_series.values),
                tuple(record.cumulative_series.values),
            )
        )
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()
    delivered = {fid: record.delivered for fid, record in result.flows.items()}
    weights = {fid: record.weight for fid, record in result.flows.items()}
    return (digest, cloud.sim.events_executed, cloud.sim._next_pid), delivered, weights


@pytest.fixture(scope="module")
def scalar_runs():
    """One scalar (default-path) run per pinned scenario, shared by the
    fingerprint and equivalence tests so each scenario simulates once."""
    return {name: _run_and_fingerprint(*make()) for name, make in SCENARIOS.items()}


# ---------------------------------------------------------------------------
# Scalar replay fingerprints (byte-identity of the default path)
# ---------------------------------------------------------------------------


def test_scalar_replay_fingerprints_unchanged(scalar_runs):
    results = {
        name: scalar_runs[name][0][0]
        for name, pinned in FINGERPRINTS.items()
        if scalar_runs[name][0][0] != pinned[0]
    }
    assert not results, (
        "default (scalar) build path no longer replays byte-identical to "
        f"the pre-vectorization code: {results}"
    )
    for field, what in ((1, "events executed"), (2, "packet ids allocated")):
        moved = {
            name: (scalar_runs[name][0][field], pinned[field])
            for name, pinned in FINGERPRINTS.items()
            if scalar_runs[name][0][field] != pinned[field]
        }
        assert not moved, f"same results, different (now, pinned) {what}: {moved}"


# ---------------------------------------------------------------------------
# Batched (vectorized=True) replay fingerprints
# ---------------------------------------------------------------------------


def _vec_chain4(scheme, train_batch):
    builder = CloudBuilder(
        TopologySpec.chain(4), scheme=scheme, seed=3,
        vectorized=True, train_batch=train_batch,
    )
    builder.add_flows(topology1_flows(WEIGHTS_41, {}))
    return builder.build(), 12.0


def _vec_parking(scheme, train_batch):
    """Parking lot whose flow 2 is a Poisson-sourced ``aggregate:4``
    bucket (mux accounting on corelite, shaper backlog on csfq)."""
    builder = CloudBuilder(
        TopologySpec.parking_lot(3), scheme=scheme, seed=5,
        vectorized=True, train_batch=train_batch,
    )
    flows = parking_lot_flows()
    flows[1] = dataclasses.replace(
        flows[1], aggregate=4, source=SourceSpec("poisson", mean_rate=100.0)
    )
    builder.add_flows(flows)
    return builder.build(), 10.0


#: (scheme, scenario, train_batch) -> (per-flow (delivered, losses,
#: repr(final allotted rate)) in flow-id order, sim.events_executed),
#: captured at the last commit that had the array-backed edges
#: (a63a83d, ``vectorized=True``).  The scalar edges with batched
#: control must keep reproducing them exactly.  The event counts (only)
#: were re-recorded once for the departure-time links: 27,065 / 22,632 /
#: 12,676 / 5,905 / 13,356 / 13,170 / 7,075 / 3,354 before, in the order
#: below.  ``("corelite", "chain4", 1)`` — the one run here that drops
#: scalar packets with a marker aboard (14 of them) — was re-recorded once
#: when such a marker started to travel on alone instead of being lost
#: with its packet: flows 8 and 11 read (239, 3, "38.0") and
#: (184, 0, "26.0"), and the run 22,777 events, before.  The event counts
#: (only) of the four Corelite rows were re-recorded once for the egress
#: ledger (see ``FINGERPRINTS``; a train's last hop is one entry too):
#: 22,760 / 19,388 / 12,237 / 5,673 before.  Those of the four CSFQ rows
#: once when the CSFQ egress started to book its in-sequence deliveries
#: (see ``FINGERPRINTS``): 12,317 / 12,162 / 7,025 / 3,219 before.
#: ``("corelite", "chain4", 1)``'s once more when parted markers stopped
#: riding (see ``FINGERPRINTS``): 18,021 before.
VECTORIZED_FINGERPRINTS = {
    ("corelite", "chain4", 1): (
        ((183, 3, "28.0"), (251, 0, "40.0"), (260, 0, "42.0"),
         (247, 1, "39.0"), (283, 6, "44.0"), (244, 0, "38.0"),
         (226, 0, "34.0"), (232, 3, "36.0"), (201, 0, "27.0"),
         (216, 1, "31.0"), (187, 0, "27.0"), (243, 0, "38.0"),
         (243, 0, "34.0"), (228, 0, "34.0"), (270, 0, "39.0"),
         (180, 0, "26.0"), (261, 0, "39.0"), (257, 0, "39.0"),
         (260, 0, "42.0"), (260, 0, "39.0")),
        18030,
    ),
    ("corelite", "chain4", 8): (
        ((180, 2, "27.0"), (253, 0, "41.0"), (257, 0, "42.0"),
         (247, 0, "39.0"), (288, 0, "44.0"), (247, 3, "40.0"),
         (229, 3, "36.0"), (242, 9, "41.0"), (207, 0, "29.0"),
         (219, 0, "32.0"), (183, 0, "26.0"), (245, 0, "39.0"),
         (237, 3, "33.0"), (237, 0, "37.0"), (270, 0, "39.0"),
         (164, 0, "21.0"), (257, 0, "38.0"), (254, 0, "38.0"),
         (266, 0, "44.0"), (257, 0, "38.0")),
        15404,
    ),
    ("corelite", "parking", 1): (
        ((241, 0, "69.0"), (684, 0, "164.0"), (172, 0, "41.0"),
         (171, 0, "41.0"), (180, 0, "41.0"), (181, 0, "41.0"),
         (174, 0, "41.0")),
        10434,
    ),
    ("corelite", "parking", 8): (
        ((239, 0, "69.0"), (673, 0, "164.0"), (171, 0, "41.0"),
         (171, 0, "41.0"), (179, 0, "41.0"), (181, 0, "41.0"),
         (173, 0, "41.0")),
        4559,
    ),
    ("csfq", "chain4", 1): (
        ((115, 6, "23.0"), (129, 3, "28.0"), (130, 2, "28.0"), (92, 6, "22.0"),
         (119, 5, "24.0"), (132, 5, "26.0"), (109, 4, "24.0"),
         (119, 3, "26.0"), (157, 7, "28.0"), (111, 3, "25.0"), (91, 8, "22.0"),
         (124, 2, "27.0"), (126, 3, "26.0"), (135, 2, "29.0"),
         (113, 4, "25.0"), (96, 5, "21.0"), (140, 4, "26.0"), (127, 5, "24.0"),
         (127, 3, "28.0"), (133, 2, "29.0")),
        9987,
    ),
    ("csfq", "chain4", 8): (
        ((108, 6, "23.0"), (129, 3, "28.0"), (130, 2, "28.0"), (92, 6, "22.0"),
         (119, 5, "24.0"), (135, 4, "28.0"), (109, 4, "24.0"),
         (120, 3, "26.0"), (148, 8, "26.0"), (111, 3, "25.0"), (84, 9, "19.0"),
         (124, 2, "27.0"), (126, 3, "26.0"), (132, 3, "27.0"),
         (113, 4, "25.0"), (95, 5, "21.0"), (140, 4, "26.0"), (127, 5, "24.0"),
         (128, 2, "28.0"), (133, 2, "29.0")),
        9854,
    ),
    ("csfq", "parking", 1): (
        ((67, 5, "18.0"), (287, 9, "77.0"), (55, 5, "18.0"), (25, 11, "9.0"),
         (71, 4, "20.0"), (54, 7, "14.0"), (42, 9, "11.0")),
        6466,
    ),
    ("csfq", "parking", 8): (
        ((67, 5, "18.0"), (261, 8, "70.0"), (55, 5, "18.0"), (25, 11, "9.0"),
         (71, 4, "20.0"), (58, 7, "14.0"), (36, 11, "9.0")),
        2692,
    ),
}

_VEC_SCENARIOS = {"chain4": _vec_chain4, "parking": _vec_parking}


@pytest.mark.parametrize(
    "key", sorted(VECTORIZED_FINGERPRINTS), ids=lambda key: "-".join(map(str, key))
)
def test_vectorized_replay_fingerprints_unchanged(key):
    scheme, scenario, train_batch = key
    cloud, until = _VEC_SCENARIOS[scenario](scheme, train_batch)
    result = cloud.run(until=until)
    flows = tuple(
        (
            record.delivered,
            record.losses,
            repr(cloud.edges[f"Ein{fid}"].allotted_rate(fid)),
        )
        for fid, record in sorted(result.flows.items())
    )
    pinned_flows, pinned_events = VECTORIZED_FINGERPRINTS[key]
    assert flows == pinned_flows
    assert cloud.sim.events_executed == pinned_events, "same results, different event structure"


# ---------------------------------------------------------------------------
# Batched vs unbatched equivalence
# ---------------------------------------------------------------------------


def test_vectorized_batched_is_statistically_equivalent(scalar_runs):
    """``vectorized=True`` batches the control plane (markers merged
    onto data, feedback coalesced per core epoch), which quantizes
    feedback arrival times — per-flow trajectories drift a few percent,
    but the fairness outcome must be preserved."""
    _, scalar_delivered, weights = scalar_runs["chain4_corelite"]
    cloud, until = SCENARIOS["chain4_corelite"](vectorized=True)
    result = cloud.run(until=until)
    vec_delivered = {fid: r.delivered for fid, r in result.flows.items()}

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
        assert state.feedback_peak == 3
        # Unbatched feedback (seq 0) from the same link adds one.
        edge.receive_feedback(feedback(0, "C1->C2"))
        assert state.feedback_peak == 4
        # The edge reacts to the max over core links, not the sum.
        edge.receive_feedback(feedback(2, "C2->C1"))
        assert state.feedback_peak == 4
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
# Aggregated sources
# ---------------------------------------------------------------------------


class TestPacedAggregateSource:
    @staticmethod
    def _drive(model, duration, seed=0):
        sim = Simulator()
        deposits = []
        model.start(
            sim, lambda mid, n: deposits.append((mid, n)), random.Random(seed)
        )
        sim.run(until=duration)
        return deposits

    def test_paced_round_robin_is_deterministic(self):
        model = PacedAggregateSource((1, 2, 3), member_rate=10.0, kind="paced")
        assert model.aggregate_rate == pytest.approx(30.0)
        deposits = self._drive(model, duration=0.5)
        # 30 pkt/s for 0.5 s -> ~15 arrivals, one per 1/30 s, members
        # cycling 1, 2, 3, 1, 2, ...
        assert len(deposits) == pytest.approx(15, abs=1)
        members = [mid for mid, _ in deposits]
        assert members == [1 + (i % 3) for i in range(len(members))]
        assert all(n == 1 for _, n in deposits)
        assert model.packets_offered == len(deposits)

    def test_poisson_superposition_statistics(self):
        model = PacedAggregateSource(
            tuple(range(1, 5)), member_rate=50.0, kind="poisson"
        )
        deposits = self._drive(model, duration=4.0, seed=7)
        total = len(deposits)
        # Aggregate Poisson(200/s) over 4 s.
        assert total == pytest.approx(800, rel=0.15)
        per_member = {mid: 0 for mid in range(1, 5)}
        for mid, _ in deposits:
            per_member[mid] += 1
        # Thinning: each member sees ~1/4 of the arrivals.
        for count in per_member.values():
            assert count == pytest.approx(total / 4, rel=0.25)

    def test_stop_halts_the_timer_chain(self):
        sim = Simulator()
        model = PacedAggregateSource((1, 2), member_rate=100.0)
        seen = []
        model.start(sim, lambda mid, n: seen.append(mid), random.Random(0))
        sim.run(until=0.1)
        model.stop()
        before = len(seen)
        sim.run(until=1.0)
        assert len(seen) == before

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PacedAggregateSource((), member_rate=1.0)
        with pytest.raises(ConfigurationError):
            PacedAggregateSource((1,), member_rate=0.0)
        with pytest.raises(ConfigurationError):
            PacedAggregateSource((1,), member_rate=1.0, kind="fractal")


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

    def test_sourced_bucket_uses_aggregate_generator(self):
        """A non-backlogged aggregate bucket runs ONE generator process
        (the Poisson superposition) and still delivers per-member."""
        builder = CloudBuilder(
            TopologySpec.chain(2), scheme="corelite", seed=4, vectorized=True
        )
        builder.add_flow(
            FlowPathSpec(
                1,
                weight=1.0,
                ingress_core="C1",
                egress_core="C2",
                aggregate=4,
                source=SourceSpec("poisson", mean_rate=20.0),
            )
        )
        cloud = builder.build(finalize=False)
        result = cloud.run(until=6.0)
        assert result.flows[1].delivered > 0
        mux = cloud.mux_for(1)
        assert mux.micro_ids == (1, 2, 3, 4)
        # One superposed generator fed all four members...
        assert sum(mux.offered.values()) > 0
        assert all(count > 0 for count in mux.offered.values())
        # ...and the round-robin shaper served each of them.
        assert all(count > 0 for count in mux.sent.values())
        assert sum(mux.sent.values()) >= result.flows[1].delivered


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
                {"id": 1, "weight": 1.0, "aggregate": 3,
                 "source": {"kind": "poisson", "mean_rate": 15.0}},
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
