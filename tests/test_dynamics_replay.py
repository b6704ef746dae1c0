"""A static spec stays on the pre-dynamics path.

The replay pins of runs with a mid-run failure and recovery are rows of the
contract table (``tests/contract``: ``chain3-failure``,
``parking-lot-failure``, ``failover-mesh``).
"""

from __future__ import annotations

from repro.experiments.builder import CloudBuilder
from repro.experiments.topospec import FlowPathSpec, TopologySpec


def test_static_spec_produces_no_dynamics_payload():
    """A spec without events must not grow a dynamics summary — static
    scenarios stay on the exact pre-dynamics code path."""
    builder = CloudBuilder(TopologySpec.chain(2), scheme="corelite", seed=1)
    builder.add_flow(FlowPathSpec(flow_id=1, weight=1.0))
    cloud = builder.build()
    result = cloud.run(until=5.0)
    assert cloud.dynamics is None
    assert result.dynamics is None
