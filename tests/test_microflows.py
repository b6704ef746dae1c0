"""An edge-to-edge flow that comprises several end-to-end micro flows.

The cloud never sees a member: such a flow is one flow, or a backlogged
``aggregate: N`` bucket that competes for N members' worth of share.
"""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.errors import FlowError
from repro.sim.sources import poisson_source


class TestFlowSpecValidation:
    def test_aggregate_is_not_backlogged(self):
        """A bucket's members carry no identity, so nothing can feed it:
        a finite source or TCP is refused, naming the flow."""
        assert FlowSpec(flow_id=1, aggregate=4).backlogged
        for kw in ({"source": poisson_source(10.0)}, {"transport": "tcp"}):
            with pytest.raises(FlowError, match=r"flow 9: an aggregate bucket is backlogged"):
                FlowSpec(flow_id=9, aggregate=4, **kw)


class TestEndToEnd:
    def test_aggregate_gets_weighted_share_as_one_flow(self):
        net = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net.add_flow(FlowSpec(flow_id=1, weight=1.0, aggregate=2))
        net.add_flow(FlowSpec(flow_id=2, weight=1.0))
        res = net.run(until=150.0)
        assert set(res.flows) == {1, 2}
        rates = res.mean_rates((110.0, 150.0))
        assert rates[1] / rates[2] == pytest.approx(2.0, rel=0.2)

    def test_deposit_through_edge_rejected_when_aggregated(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        builder.add_flow(FlowSpec(flow_id=1, aggregate=4))
        net = builder.add_flow(FlowSpec(flow_id=2)).build()
        with pytest.raises(FlowError, match="always-backlogged"):
            net.edges["Ein1"].deposit(1, 1)
