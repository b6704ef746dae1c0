"""Tests for contract admission control."""

import pytest

from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.core.admission import AdmissionController
from repro.errors import ConfigurationError, FlowError


@pytest.fixture
def controller():
    return AdmissionController({"L1": 500.0, "L2": 500.0}, utilization_bound=0.9)


class TestController:
    def test_reserve_and_query(self, controller):
        assert controller.request("f1", ["L1"], 100.0)
        assert controller.reserved_on("L1") == 100.0
        assert controller.reserved_on("L2") == 0.0
        assert controller.contract_of("f1") == 100.0
        assert controller.headroom_on("L1") == pytest.approx(350.0)

    def test_rejection_when_headroom_exhausted(self, controller):
        assert controller.request("f1", ["L1"], 400.0)
        assert not controller.request("f2", ["L1"], 100.0)  # 450 limit
        assert controller.rejected == 1
        assert controller.reserved_on("L1") == 400.0  # nothing leaked

    def test_multi_link_reservation_is_atomic(self, controller):
        controller.request("hog", ["L2"], 449.0)
        # f2 fits L1 but not L2: nothing must be reserved anywhere.
        assert not controller.request("f2", ["L1", "L2"], 10.0)
        assert controller.reserved_on("L1") == 0.0

    def test_release_frees_capacity(self, controller):
        controller.request("f1", ["L1", "L2"], 200.0)
        freed = controller.release("f1")
        assert freed == 200.0
        assert controller.reserved_on("L1") == 0.0
        assert controller.request("f2", ["L1"], 449.0)

    def test_double_contract_rejected(self, controller):
        controller.request("f1", ["L1"], 10.0)
        with pytest.raises(FlowError):
            controller.request("f1", ["L1"], 10.0)

    def test_release_without_contract(self, controller):
        with pytest.raises(FlowError):
            controller.release("ghost")

    def test_unknown_link_rejected(self, controller):
        with pytest.raises(ConfigurationError):
            controller.request("f1", ["L9"], 10.0)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AdmissionController({"L": 500.0}, utilization_bound=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController({"L": -1.0})
        c = AdmissionController({"L": 500.0})
        with pytest.raises(ConfigurationError):
            c.request("f", ["L"], 0.0)


class TestNetworkIntegration:
    def test_admissible_contracts_are_accepted(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        builder.add_flow(FlowSpec(flow_id=1, min_rate=200.0))
        builder.add_flow(FlowSpec(flow_id=2, min_rate=200.0))
        net = builder.build()
        assert net.admission.reserved_on("C1->C2") == 400.0

    def test_oversubscribed_contracts_rejected_at_finalize(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        builder.add_flow(FlowSpec(flow_id=1, min_rate=300.0))
        builder.add_flow(FlowSpec(flow_id=2, min_rate=300.0))  # 600 > 450 limit
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_uncontracted_network_builds_no_controller(self):
        builder = CloudBuilder(TopologySpec.chain(2), "corelite", seed=0)
        net = builder.add_flow(FlowSpec(flow_id=1)).build()
        assert not hasattr(net, "admission")
