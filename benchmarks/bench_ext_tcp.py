"""EXT-TCP — TCP end hosts through the Corelite cloud (§4.4 future work).

Not a paper figure: the paper leaves "agents like TCP which involve
interaction between the edge router and end-host" as ongoing work.  This
bench runs two Reno/NewReno connections (weights 1 and 2) against one
paper-style shaped flow (weight 1) and checks the extension's claims:

* the edge *allotments* converge to the weighted max-min split even
  though TCP is weight-blind;
* each TCP connection realizes most of its share and never exceeds it;
* the shaped flow is not hurt by TCP burstiness (policing stays at the
  edge);
* TCP itself stays healthy (bounded timeouts, no collapse).
"""

import pytest

from benchmarks.conftest import once
from repro import CloudBuilder, FlowSpec, TopologySpec
from repro.experiments.report import format_table

DURATION = 200.0


@pytest.mark.benchmark(group="ext")
def test_tcp_over_corelite(benchmark, write_report):
    def run():
        builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=500.0), "corelite", seed=1)
        builder.add_flow(FlowSpec(flow_id=1, weight=1.0, transport="tcp"))
        builder.add_flow(FlowSpec(flow_id=2, weight=2.0, transport="tcp"))
        builder.add_flow(FlowSpec(flow_id=3, weight=1.0))
        net = builder.build()
        return net, net.run(until=DURATION)

    net, result = once(benchmark, run)
    window = (0.75 * DURATION, DURATION)
    rates = result.mean_rates(window)
    tput = result.mean_throughputs(window)
    expected = result.expected_rates(at_time=sum(window) / 2)

    rows = []
    for fid in result.flow_ids:
        kind = "tcp" if fid in net.tcp_hosts else "shaped"
        rows.append([fid, kind, result.flows[fid].weight, expected[fid],
                     rates[fid], tput[fid]])
    table = format_table(
        ["flow", "kind", "weight", "expected", "allotted bg", "delivered"], rows
    )

    # Allotments follow the weighted split regardless of transport.
    for fid, exp in expected.items():
        assert rates[fid] == pytest.approx(exp, rel=0.15), (fid, rates[fid], exp)
    # TCP realizes most of its share (Reno leaves some on the table at
    # this RTT) and never exceeds the allotment.
    for fid in net.tcp_hosts:
        assert tput[fid] > 0.6 * rates[fid], (fid, tput[fid], rates[fid])
        assert tput[fid] <= rates[fid] * 1.1
    # The shaped flow delivers essentially its full allotment.
    assert tput[3] == pytest.approx(rates[3], rel=0.1)
    # TCP health.
    for fid, (sender, receiver) in net.tcp_hosts.items():
        assert sender.timeouts < 10, (fid, sender.timeouts)
        assert receiver.delivered > 0.5 * DURATION * expected[fid] / 1.5

    write_report("ext_tcp", "EXT-TCP\n" + table)
