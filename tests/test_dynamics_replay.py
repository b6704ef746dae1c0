"""Replay pins for runs with topology dynamics.

A run with a mid-run link failure and recovery must be byte-identical
across repeats and to the values pinned below — topology churn may not
introduce any ordering nondeterminism (the acceptance pin for the dynamics
subsystem, in the style of test_hotpath.py's static pins).

The pins compared the engine's bucket-ring tier on and off until the ring
was deleted.  Each is now the SHA-256 of the run's fingerprint, the packet
id counter and the executed-event count, recorded on the two-level store
(equal both ways) just before: the ring only chose where an event was
stored, never its ``(time, seq)`` firing order, so the single heap must
replay these runs exactly.

A link now counts only its drops, so the fingerprint keeps each queue's
``dropped_data`` (beside ``failure_drops`` / ``inflight_drops``) where it
hashed the whole ``QueueStats``; both digests were re-recorded over that
reduced fingerprint on the commit before the other counters were deleted,
and the packet-id counter and event count did not move.
"""

from __future__ import annotations

import hashlib

from repro.experiments.builder import CloudBuilder
from repro.experiments.scenarios import parking_lot_flows
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent


def _fingerprint(cloud, result):
    flows = tuple(
        (
            fid,
            rec.delivered,
            rec.losses,
            tuple(rec.rate_series.values),
            tuple(rec.throughput_series.values),
            tuple(rec.cumulative_series.values),
        )
        for fid, rec in sorted(result.flows.items())
    )
    queues = tuple(
        (name, link.queue.stats.dropped_data)
        for name, link in sorted(cloud.topology.links.items())
    )
    drops = tuple(
        (name, link.failure_drops, link.inflight_drops)
        for name, link in sorted(cloud.topology.links.items())
    )
    return (
        flows,
        queues,
        drops,
        result.total_drops,
        tuple((t, e.kind, e.pair) for t, e in cloud.dynamics.applied),
    )


def _pin(fingerprint, cloud):
    """``(digest of the fingerprint, packet id counter, events executed)``."""
    digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
    return digest, cloud.sim._next_pid, cloud.sim.events_executed


def _chain_failure_run():
    spec = TopologySpec.chain(
        3,
        events=(
            NetworkEvent(time=6.0, kind="link_down", a="C1", b="C2"),
            NetworkEvent(time=12.0, kind="link_up", a="C1", b="C2"),
        ),
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=5)
    builder.add_flow(
        FlowPathSpec(flow_id=1, weight=1.0, ingress_core="C1", egress_core="C3")
    )
    builder.add_flow(
        FlowPathSpec(flow_id=2, weight=2.0, ingress_core="C2", egress_core="C3")
    )
    cloud = builder.build()
    result = cloud.run(until=20.0)
    fingerprint = _fingerprint(cloud, result)
    return fingerprint, _pin(fingerprint, cloud)


def test_chain_failure_replay_byte_identical_across_optimizations():
    base, pin = _chain_failure_run()
    assert _chain_failure_run() == (base, pin)
    assert pin == (
        "4032536d50bb3924efac6a0d95d43eff75893e1bc076b9b46537111c57039db3",
        2380,
        7805,
    )
    # The failure actually did something (the pin is not vacuous).
    assert base[3] > 0
    assert len(base[4]) == 2


def _parking_lot_failure_run():
    spec = TopologySpec.parking_lot(
        hops=3,
        events=(
            NetworkEvent(time=8.0, kind="link_down", a="C2", b="C3"),
            NetworkEvent(time=14.0, kind="link_up", a="C2", b="C3"),
        ),
    )
    builder = CloudBuilder(spec, scheme="corelite", seed=11)
    builder.add_flows(parking_lot_flows(hops=3))
    cloud = builder.build()
    result = cloud.run(until=24.0)
    return _pin(_fingerprint(cloud, result), cloud)


def test_parking_lot_failure_replay_byte_identical_across_optimizations():
    """The parking-lot shape exercises the PR 5 epoch-parking machinery
    together with a failure on a parked-adjacent hop."""
    pin = _parking_lot_failure_run()
    assert _parking_lot_failure_run() == pin
    assert pin == (
        "96737d198fccc750fd6559c946ed8511e415c11b1c9b7a9e3393588baf436b20",
        10183,
        30575,
    )


def test_static_spec_produces_no_dynamics_payload():
    """A spec without events must not grow a dynamics summary — static
    scenarios stay on the exact pre-dynamics code path."""
    builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite", seed=1)
    builder.add_flow(FlowPathSpec(flow_id=1, weight=1.0))
    cloud = builder.build()
    result = cloud.run(until=5.0)
    assert cloud.dynamics is None
    assert result.dynamics is None
