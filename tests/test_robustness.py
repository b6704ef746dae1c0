"""Queue recording: the occupancy series a run can sample per core link."""

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.experiments.scenarios import startup_flows


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
