#!/usr/bin/env python3
"""Experiments without harness code: the declarative scenario DSL.

The same JSON you could put in a file and run with
``corelite run scenario.json`` — a heterogeneous mix on one cloud:
a plain weighted flow, a demand-limited Poisson flow, a TCP connection,
and a flow that leaves and returns.

Run:  python examples/declarative_scenario.py
"""

import json

from repro.experiments.report import rate_comparison_table
from repro.experiments.scenario_dsl import run_scenario

SCENARIO = {
    "scheme": "corelite",
    "seed": 2,
    "duration": 150.0,
    "topology": {"kind": "chain", "num_cores": 2, "capacity_pps": 500.0},
    "config": {"edge_epoch": 0.3},
    "flows": [
        {"id": 1, "weight": 2.0},
        {"id": 2, "weight": 1.0, "source": {"kind": "poisson", "mean_rate": 50}},
        {"id": 3, "weight": 1.0, "transport": "tcp"},
        {"id": 4, "weight": 1.0, "schedule": [[0, 60], [90, None]]},
    ],
}


def main() -> None:
    print("Scenario JSON:\n")
    print(json.dumps(SCENARIO, indent=2))
    result = run_scenario(SCENARIO)

    window = (120.0, 150.0)
    # Delivered throughput, not the allotted bg: a demand-limited flow's
    # allowance floats far above what it actually sends (it never gets
    # feedback), so throughput is the comparable quantity here.
    measured = result.mean_throughputs(window)
    expected = result.expected_rates(at_time=130.0)
    print("\nSteady state (all four flows active), delivered throughput:\n")
    print(rate_comparison_table(measured, expected, result.weights()))
    print(f"\ndrops: {result.total_drops}")
    print("\nThe Poisson flow is demand-limited (its expectation is its "
          "offered 50 pkt/s); the other three split the rest by weight — "
          "including the TCP connection, which realizes most of its share.")


if __name__ == "__main__":
    main()
