#!/usr/bin/env python3
"""Quickstart: weighted rate fairness on a single bottleneck.

Builds the smallest interesting Corelite cloud — two core routers, one
4 Mbps (500 pkt/s) bottleneck link — and runs three always-backlogged
flows with rate weights 1, 2 and 3.  Weighted max-min fairness predicts a
1:2:3 split of the bottleneck: ~83 / 167 / 250 pkt/s.

Run:  python examples/quickstart.py
"""

from repro import CloudBuilder, TopologySpec, FlowSpec
from repro.experiments.report import ascii_chart, rate_comparison_table


def main() -> None:
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=500.0), "corelite", seed=42)
    builder.add_flow(FlowSpec(flow_id=1, weight=1.0))
    builder.add_flow(FlowSpec(flow_id=2, weight=2.0))
    builder.add_flow(FlowSpec(flow_id=3, weight=3.0))

    result = builder.run(until=120.0)

    window = (90.0, 120.0)
    measured = result.mean_rates(window)
    expected = result.expected_rates(at_time=100.0)
    print("Corelite on one 500 pkt/s bottleneck, weights 1:2:3\n")
    print(rate_comparison_table(measured, expected, result.weights()))
    print(f"\npacket drops in the whole run: {result.total_drops}")

    print()
    print(
        ascii_chart(
            {f"flow{fid} (w={result.flows[fid].weight:.0f})": result.flows[fid].rate_series
             for fid in result.flow_ids},
            title="Allotted rate bg(f) over time (pkt/s)",
        )
    )


if __name__ == "__main__":
    main()
