"""Short (finite-transfer) flows through Corelite and CSFQ.

The paper's §4.3: "with CSFQ the difference in performance obtained
especially by flows with higher weights and that are short-lived is
significant because flows have a greater chance of exiting their
slow-start prematurely.  Corelite avoids this and provides improved
fairness even for short-lived flows."
"""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.sim.sources import FiniteTransferSource, transfer_source
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
import random


class TestFiniteTransferSource:
    def test_offers_exactly_total(self):
        sim = Simulator()
        model = FiniteTransferSource(total=50, peak_rate=100.0)
        got = []
        model.start(sim, lambda n: got.append(n), random.Random(0))
        sim.run(until=10.0)
        assert sum(got) == 50
        assert model.finished

    def test_paced_at_peak_rate(self):
        sim = Simulator()
        model = FiniteTransferSource(total=100, peak_rate=100.0)
        times = []
        model.start(sim, lambda n: times.append(sim.now), random.Random(0))
        sim.run(until=10.0)
        assert times[-1] == pytest.approx(0.99, abs=0.02)

    def test_stop_mid_transfer(self):
        sim = Simulator()
        model = FiniteTransferSource(total=1000, peak_rate=100.0)
        got = []
        model.start(sim, lambda n: got.append(n), random.Random(0))
        sim.run(until=1.0)
        model.stop()
        sim.run(until=60.0)
        assert 50 <= sum(got) <= 150
        assert not model.finished

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FiniteTransferSource(0, 10.0)
        with pytest.raises(ConfigurationError):
            FiniteTransferSource(10, 0.0)
        with pytest.raises(ConfigurationError):
            transfer_source(-1, 10.0)


class TestShortFlowCompletion:
    def completion_time(self, scheme, seed=0):
        """Two long backlogged flows plus a short 600-packet transfer that
        starts mid-run; return the transfer's completion time."""
        net = CloudBuilder(TopologySpec.chain(2), scheme, seed=seed)
        net.add_flow(FlowSpec(flow_id=1, weight=1.0))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0))
        net.add_flow(FlowSpec(
            flow_id=3, weight=3.0, schedule=((40.0, 10_000.0),),
            source=transfer_source(600, 400.0),
        ))
        res = net.run(until=120.0, sample_interval=0.5)
        cum = res.flows[3].cumulative_series
        for t, v in cum:
            if v >= 600:
                return t - 40.0, res
        return None, res

    def test_short_high_weight_transfer_completes_reasonably(self):
        t_corelite, res = self.completion_time("corelite")
        assert t_corelite is not None, "transfer never completed under Corelite"
        # weighted share for w=3 of 5 units ~ 300 pkt/s; 600 packets in
        # a few seconds plus the slow-start runway.
        assert t_corelite < 40.0
        assert res.flows[3].losses <= 5

    def test_corelite_no_worse_than_csfq_for_short_flows(self):
        t_corelite, res_c = self.completion_time("corelite")
        t_csfq, res_q = self.completion_time("csfq")
        assert t_corelite is not None
        # CSFQ may or may not complete in the horizon; if it does, the
        # paper's ordering claim: Corelite is not slower by much, and its
        # transfer loses (far) fewer packets.
        if t_csfq is not None:
            assert t_corelite <= t_csfq * 1.3, (t_corelite, t_csfq)
        assert res_c.flows[3].losses <= res_q.flows[3].losses
