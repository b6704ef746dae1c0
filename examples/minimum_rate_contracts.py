#!/usr/bin/env python3
"""Minimum rate contracts (the paper's §4/§6 service extension).

A Corelite edge can guarantee a flow a contracted floor: it simply never
throttles the flow below its minimum rate, while the *excess* bandwidth
is still shared in weighted max-min fashion.  Here a "premium" flow
contracts 200 pkt/s of the 500 pkt/s bottleneck and competes with three
best-effort flows of equal weight.

Expected: premium >= 200 pkt/s always; the excess ~300 pkt/s splits
four ways (premium competes for excess too with its weight), so premium
lands near 275 and each best-effort flow near 75.

Run:  python examples/minimum_rate_contracts.py
"""

from repro import CloudBuilder, TopologySpec, FlowSpec
from repro.experiments.report import rate_comparison_table
from repro.fairness.maxmin import FlowDemand, weighted_maxmin_with_minimums


def main() -> None:
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=500.0), "corelite", seed=11)
    builder.add_flow(FlowSpec(flow_id=1, weight=1.0, min_rate=200.0))  # premium
    for fid in (2, 3, 4):
        builder.add_flow(FlowSpec(flow_id=fid, weight=1.0))

    result = builder.run(until=150.0)

    # Analytic expectation: reserve the contract, water-fill the excess.
    capacities = result.capacities
    demands = [
        FlowDemand(fid, rec.weight, rec.path_links)
        for fid, rec in result.flows.items()
    ]
    expected = weighted_maxmin_with_minimums(capacities, demands, {1: 200.0})

    window = (110.0, 150.0)
    measured = result.mean_rates(window)
    print("Minimum rate contracts: flow 1 contracts 200 pkt/s\n")
    print(rate_comparison_table(measured, expected, result.weights()))
    print(f"\nflow 1 never dips below its contract: "
          f"min sampled rate = {min(result.flows[1].rate_series.values):.1f} pkt/s")


if __name__ == "__main__":
    main()
