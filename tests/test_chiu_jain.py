"""Tests for the Chiu-Jain fluid model, and its agreement with packets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fairness.chiu_jain import (
    FluidTrace,
    convergence_epochs,
    simulate_fluid_limd,
)


class TestFluidModel:
    def test_equal_weights_converge_to_equal_rates(self):
        trace = simulate_fluid_limd([1.0, 1.0, 1.0], capacity=300.0)
        assert trace.fairness() > 0.999
        for rate in trace.final:
            assert rate == pytest.approx(100.0, rel=0.05)

    def test_weighted_fixed_point(self):
        trace = simulate_fluid_limd([1.0, 2.0, 3.0], capacity=600.0)
        assert trace.final[0] == pytest.approx(100.0, rel=0.05)
        assert trace.final[1] == pytest.approx(200.0, rel=0.05)
        assert trace.final[2] == pytest.approx(300.0, rel=0.05)

    def test_convergence_from_skewed_start(self):
        trace = simulate_fluid_limd(
            [1.0, 1.0], capacity=200.0, initial=[199.0, 1.0]
        )
        assert trace.fairness() > 0.999

    def test_aggregate_tracks_capacity(self):
        trace = simulate_fluid_limd([1.0, 4.0], capacity=500.0)
        assert trace.aggregate() == pytest.approx(500.0, rel=0.05)

    def test_convergence_epochs_detects_settling(self):
        trace = simulate_fluid_limd(
            [1.0, 1.0], capacity=200.0, initial=[199.0, 1.0], epochs=500
        )
        settled = convergence_epochs(trace, tolerance=0.02)
        assert 0 < settled < 400

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_fluid_limd([], capacity=100.0)
        with pytest.raises(ConfigurationError):
            simulate_fluid_limd([1.0], capacity=0.0)
        with pytest.raises(ConfigurationError):
            simulate_fluid_limd([1.0], capacity=10.0, epochs=0)
        with pytest.raises(ConfigurationError):
            simulate_fluid_limd([1.0, 1.0], capacity=10.0, initial=[1.0])
        trace = simulate_fluid_limd([1.0], capacity=10.0)
        with pytest.raises(ConfigurationError):
            convergence_epochs(trace, tolerance=0.0)

    @given(
        st.lists(st.floats(0.5, 8.0), min_size=2, max_size=10),
        st.floats(100.0, 2000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_converges_for_any_weights(self, weights, capacity):
        """The Chiu-Jain property the paper leans on: weighted LIMD with
        proportional feedback converges to weighted fairness from any
        start, for any weights."""
        # alpha scaled to capacity so the +-alpha sawtooth stays small
        # relative to the smallest fair rate (it is an oscillation, not a
        # convergence error).
        trace = simulate_fluid_limd(
            weights, capacity=capacity, epochs=3000, alpha=capacity / 1000.0
        )
        assert trace.fairness() > 0.995
        assert trace.aggregate() <= capacity * 1.1


class TestFluidVsPackets:
    def test_fluid_fixed_point_matches_packet_steady_state(self):
        """The fluid prediction and the packet simulator agree on where
        the rates settle (within the packet system's oscillation)."""
        from repro import CloudBuilder, FlowSpec, TopologySpec

        weights = [1.0, 2.0, 3.0]
        fluid = simulate_fluid_limd(weights, capacity=500.0)

        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        for fid, w in enumerate(weights, start=1):
            net.add_flow(FlowSpec(flow_id=fid, weight=w))
        res = net.run(until=120.0)
        measured = res.mean_rates((90.0, 120.0))

        for fid, fluid_rate in zip((1, 2, 3), fluid.final):
            assert measured[fid] == pytest.approx(fluid_rate, rel=0.15), (
                fid, measured[fid], fluid_rate,
            )
