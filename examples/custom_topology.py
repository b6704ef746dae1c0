#!/usr/bin/env python3
"""Building a custom cloud: a 3-core parking lot with mixed traffic.

Shows the harness beyond the paper's fixed scenarios: a chain of three
cores with different link capacities, a long flow crossing both congested
links, heavier short flows, and one flow that churns (leaves and
returns).  The analytic weighted max-min allocation is computed from the
same topology for comparison.

Run:  python examples/custom_topology.py
"""

from repro import CloudBuilder, TopologySpec, FlowSpec
from repro.experiments.report import ascii_chart, rate_comparison_table
from repro.units import mbps_to_pps


def main() -> None:
    spec = TopologySpec.chain(
        3,
        capacity_pps=mbps_to_pps(4.0),   # 500 pkt/s
        access_capacity_pps=mbps_to_pps(8.0),  # fat access links
    )
    builder = CloudBuilder(spec, "corelite", seed=5)
    # A long flow across both congested links...
    builder.add_flow(FlowSpec(flow_id=1, weight=1.0, ingress_core="C1", egress_core="C3"))
    # ...a heavy short flow on each link...
    builder.add_flow(FlowSpec(flow_id=2, weight=2.0, ingress_core="C1", egress_core="C2"))
    builder.add_flow(FlowSpec(flow_id=3, weight=2.0, ingress_core="C2", egress_core="C3"))
    # ...and a churning light flow that shares the second link.
    builder.add_flow(FlowSpec(
        flow_id=4, weight=1.0, ingress_core="C2", egress_core="C3",
        schedule=((40.0, 90.0), (120.0, 10_000.0)),
    ))

    result = builder.run(until=160.0)

    for label, at, window in (
        ("flow 4 absent", 30.0, (20.0, 39.0)),
        ("flow 4 active", 80.0, (70.0, 89.0)),
        ("flow 4 returned", 150.0, (140.0, 160.0)),
    ):
        print(f"\n=== {label} ===")
        expected = result.expected_rates(at_time=at)
        measured = {f: r for f, r in result.mean_rates(window).items() if f in expected}
        print(rate_comparison_table(measured, expected, result.weights()))

    print()
    print(ascii_chart(
        {f"flow{f}": result.flows[f].rate_series for f in result.flow_ids},
        title="Allotted rates across the churn (pkt/s)",
    ))


if __name__ == "__main__":
    main()
