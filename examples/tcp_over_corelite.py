#!/usr/bin/env python3
"""TCP end hosts through a Corelite cloud (the paper's §4.4/§6 future work).

Two Reno TCP connections — weights 1 and 2 — and one paper-style shaped
flow (weight 1) share a 500 pkt/s bottleneck.  The Corelite edge shapes
each TCP stream to its allotted rate ``bg(f)`` with a 40-packet policing
buffer: TCP never sees the core, only the edge's shaping, and its
congestion control adapts to that.  The interesting outcome:

* the *allotted* rates converge to the weighted max-min split even
  though TCP is weight-blind;
* each TCP connection realizes as much of its share as its window
  dynamics allow (Reno at this RTT leaves a little on the table), and
  never more;
* the shaped flow is not hurt by TCP's burstiness — policing happens at
  the edges, exactly where the paper puts it.

Run:  python examples/tcp_over_corelite.py
"""

from repro import CloudBuilder, TopologySpec, FlowSpec
from repro.experiments.report import format_table


def main() -> None:
    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=500.0), "corelite", seed=1)
    builder.add_flow(FlowSpec(flow_id=1, weight=1.0, transport="tcp"))
    builder.add_flow(FlowSpec(flow_id=2, weight=2.0, transport="tcp"))
    builder.add_flow(FlowSpec(flow_id=3, weight=1.0))  # a paper-style shaped flow

    net = builder.build()  # kept: the TCP hosts and edges are inspected below
    result = net.run(until=200.0)
    window = (150.0, 200.0)

    rates = result.mean_rates(window)
    tput = result.mean_throughputs(window)
    expected = result.expected_rates(at_time=160.0)

    rows = []
    for fid in result.flow_ids:
        kind = "tcp" if fid in net.tcp_hosts else "shaped"
        rows.append([
            fid, kind, result.flows[fid].weight,
            expected[fid], rates[fid], tput[fid],
        ])
    print("TCP and shaped flows sharing one Corelite bottleneck\n")
    print(format_table(
        ["flow", "kind", "weight", "expected", "allotted bg", "delivered"],
        rows,
    ))

    print("\nTCP internals:")
    tcp_rows = []
    for fid, (sender, receiver) in sorted(net.tcp_hosts.items()):
        tcp_rows.append([
            fid, f"{sender.cwnd:.1f}", f"{sender.srtt * 1e3:.0f} ms",
            sender.fast_retransmits, sender.timeouts,
            net.edges[f"Ein{fid}"].shaper_drops_of(fid),
        ])
    print(format_table(
        ["flow", "cwnd", "srtt", "fast rexmit", "timeouts", "edge policer drops"],
        tcp_rows,
    ))


if __name__ == "__main__":
    main()
