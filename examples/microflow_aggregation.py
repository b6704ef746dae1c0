#!/usr/bin/env python3
"""Micro-flow aggregation at the edge (the paper's §2/§6 aggregate model).

A Corelite edge-to-edge flow "can potentially comprise of several end to
end micro flows".  The cloud allocates the *aggregate* its weighted
max-min share with no extra core state; the ingress edge then divides
that share among the micro-flows round-robin, so backlogged micro-flows
split it equally and idle ones donate their portion.

Here an aggregate of three micro-flows (weight 2) competes with a plain
flow (weight 1) on a 500 pkt/s bottleneck: the aggregate should take
~333 pkt/s and each busy micro-flow ~111 pkt/s.

Run:  python examples/microflow_aggregation.py
"""

from repro import CloudBuilder, TopologySpec, FlowSpec
from repro.experiments.report import format_table
from repro.sim.sources import poisson_source


def main() -> None:
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=500.0), "corelite", seed=9)
    builder.add_flow(FlowSpec(
        flow_id=1,
        weight=2.0,
        micro_flows=tuple((mid, poisson_source(250.0)) for mid in (1, 2, 3)),
    ))
    builder.add_flow(FlowSpec(flow_id=2, weight=1.0))

    result = builder.run(until=150.0)
    window = (110.0, 150.0)

    rates = result.mean_rates(window)
    expected = result.expected_rates(at_time=120.0)
    print("Aggregate (weight 2, three micro-flows) vs plain flow (weight 1)\n")
    print(format_table(
        ["flow", "kind", "measured pkt/s", "expected pkt/s"],
        [
            [1, "aggregate", rates[1], expected[1]],
            [2, "plain", rates[2], expected[2]],
        ],
    ))

    micro = result.flows[1].micro_delivered
    span = result.duration
    print("\nWithin the aggregate (equal round-robin split):")
    print(format_table(
        ["micro-flow", "delivered", "mean pkt/s"],
        [[mid, count, count / span] for mid, count in sorted(micro.items())],
    ))
    print(f"\ndrops: {result.total_drops}")


if __name__ == "__main__":
    main()
