"""Failure-injection and robustness tests.

The Corelite control loop rides on unacknowledged control packets:
feedback markers can be lost.  These tests inject control-plane loss and
verify graceful degradation — the design's implicit claim, since a core
router "does not know or care" whether its feedback arrives.
"""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.errors import ConfigurationError
from repro.experiments.scenarios import startup_flows
from repro.fairness.metrics import weighted_jain_index
from repro.sim.control import ControlPlane


class TestControlPlaneLoss:
    def run_with_loss(self, loss_prob, until=80.0):
        builder = CloudBuilder(
            TopologySpec.chain(2), "corelite", seed=0, control_loss_prob=loss_prob
        )
        net = builder.add_flows(startup_flows(6)).build()
        result = net.run(until=until)
        return net, result

    def test_lossless_control_plane_loses_nothing(self):
        net, _result = self.run_with_loss(0.0)
        assert net.control.lost == 0

    def test_fault_model_counts_losses(self):
        net, _result = self.run_with_loss(0.3)
        assert net.control.lost > 0
        assert net.control.delivered > 0

    def test_fairness_survives_30_percent_feedback_loss(self):
        """Lost feedback slows throttling but does not break weighted
        fairness: the next epoch's markers carry the same information."""
        _net, result = self.run_with_loss(0.3)
        rates = result.mean_rates((60.0, 80.0))
        weights = result.weights()
        flow_ids = sorted(rates)
        wj = weighted_jain_index(
            [rates[f] for f in flow_ids], [weights[f] for f in flow_ids]
        )
        assert wj > 0.95

    def test_feedback_loss_costs_packet_drops(self):
        """Degradation is graceful but real: less feedback means deeper
        queue excursions and somewhat more tail drops."""
        _net0, clean = self.run_with_loss(0.0)
        _net1, lossy = self.run_with_loss(0.5)
        assert lossy.total_drops >= clean.total_drops

    def test_csfq_loss_notifications_also_survive(self):
        net = CloudBuilder(TopologySpec.chain(2), "csfq", seed=0, control_loss_prob=0.3)
        net.add_flows(startup_flows(6))
        result = net.run(until=80.0)
        rates = result.mean_rates((60.0, 80.0))
        weights = result.weights()
        flow_ids = sorted(rates)
        wj = weighted_jain_index(
            [rates[f] for f in flow_ids], [weights[f] for f in flow_ids]
        )
        assert wj > 0.9

    def test_invalid_loss_prob_rejected(self):
        with pytest.raises(ConfigurationError):
            CloudBuilder(TopologySpec.chain(2), "corelite", control_loss_prob=1.0).build()
        with pytest.raises(ConfigurationError):
            CloudBuilder(TopologySpec.chain(2), "corelite", control_loss_prob=-0.1).build()

    def test_lossy_plane_requires_rng(self):
        from repro.sim.engine import Simulator
        from repro.sim.topology import Topology

        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ControlPlane(sim, Topology(sim), loss_prob=0.2, rng=None)


class TestQueueRecording:
    def test_queue_series_recorded_for_core_links(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flows(startup_flows(4))
        result = net.run(until=20.0, record_queues=True)
        assert "C1->C2" in result.queue_series
        series = result.queue_series["C1->C2"]
        assert len(series) > 0
        assert max(series.values) <= 40.0

    def test_queue_series_absent_by_default(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1))
        result = net.run(until=5.0)
        assert result.queue_series == {}

    def test_congested_link_queue_oscillates_below_capacity(self):
        """The §3.1 design goal: incipient-congestion feedback keeps the
        queue off the 40-packet ceiling in steady state."""
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flows(startup_flows(6))
        result = net.run(until=60.0, record_queues=True)
        steady = result.queue_series["C1->C2"].window(30.0, 60.0)
        mean_occupancy = sum(steady.values) / len(steady)
        assert 0.0 < mean_occupancy < 35.0
