"""STATE — the core-stateless thesis, measured (paper §1).

"High speed routers in the core of backbone networks typically serve
hundreds of thousands of flows simultaneously", so Intserv's per-flow
state "is not a scalable solution".  This bench runs the same
single-bottleneck workload with growing flow counts under four designs
and records the *peak per-flow state at the bottleneck router*:

* Corelite (selective): two scalars per link, zero flow entries — O(1);
* weighted CSFQ: per-link aggregates only — O(1);
* WFQ at the core: finish tags + backlogs for every buffered flow — O(n);
* FRED at the core: entries for every buffered flow — O(n).

(Corelite's marker-cache variant is also measured: its history is bounded
by a config constant, independent of the flow count.)

The (flow count x scheme) measurement points are independent
simulations, so ``REPRO_BENCH_WORKERS>1`` fans them over a process pool
(:func:`repro.experiments.parallel.pool_map`); each point's peak-state
number is identical either way.  ``REPRO_BENCH_MAX_FLOWS`` extends the
flow-count ladder past the default 32 (e.g. ``=256`` adds 64/128/256
points) — the O(1)-vs-O(n) gap is most dramatic at flow-scale.
"""

import math
import os

import pytest

from benchmarks.conftest import bench_workers, once
from repro import CloudBuilder, TopologySpec
from repro.aqm.fred import FredQueue
from repro.aqm.wfq import WfqQueue
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.experiments.parallel import pool_map
from repro.experiments.report import format_table
from repro.experiments.scenarios import startup_flows

_FLOW_LADDER = (4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _flow_counts():
    """Doubling ladder up to ``REPRO_BENCH_MAX_FLOWS`` (default 32)."""
    max_flows = int(os.environ.get("REPRO_BENCH_MAX_FLOWS", "32"))
    return tuple(n for n in _FLOW_LADDER if n <= max_flows) or _FLOW_LADDER[:1]


FLOW_COUNTS = _flow_counts()
DURATION = 30.0
SCHEMES = ("corelite-selective", "corelite-cache", "csfq", "wfq", "fred")


def _weight(fid: int) -> float:
    return float(math.ceil(fid / 2))


def _peak_state(net, tracker) -> int:
    peak = [0]
    net.sim.every(0.05, lambda: peak.__setitem__(0, max(peak[0], tracker())))
    return peak


def _run_corelite(n: int, scheme: FeedbackScheme) -> int:
    net = CloudBuilder(
        TopologySpec.chain(2), "corelite", seed=0,
        config=CoreliteConfig(feedback_scheme=scheme),
    ).add_flows(startup_flows(n)).build()
    core = net.core_router("C1")
    peak = _peak_state(net, core.flow_state_entries)
    net.run(until=DURATION)
    return peak[0]


def _run_csfq(n: int) -> int:
    builder = CloudBuilder(TopologySpec.chain(2), "csfq", seed=0)
    net = builder.add_flows(startup_flows(n)).build()
    core = net.core_router("C1")
    peak = _peak_state(net, core.flow_state_entries)
    net.run(until=DURATION)
    return peak[0]


def _run_queue_based(n: int, factory_kind: str) -> int:
    if factory_kind == "wfq":
        def factory():
            return WfqQueue(capacity=40.0, weight_of=_weight)
    else:
        def factory():
            return FredQueue(capacity=40.0)
    net = CloudBuilder(
        TopologySpec.chain(2), "fifo", seed=0, queue_factory=factory
    ).add_flows(startup_flows(n)).build()
    queue = net.topology.links["C1->C2"].queue
    if factory_kind == "wfq":
        tracker = lambda: queue.per_flow_state_size
    else:
        tracker = lambda: queue.active_flows
    peak = [0]
    net.sim.every(0.05, lambda: peak.__setitem__(0, max(peak[0], tracker())))
    net.run(until=DURATION)
    return peak[0]


def _run_point(point):
    """One (flow count, scheme) measurement — module-level for spawn."""
    n, kind = point
    if kind == "corelite-selective":
        return _run_corelite(n, FeedbackScheme.SELECTIVE)
    if kind == "corelite-cache":
        return _run_corelite(n, FeedbackScheme.MARKER_CACHE)
    if kind == "csfq":
        return _run_csfq(n)
    return _run_queue_based(n, kind)


@pytest.mark.benchmark(group="state")
def test_core_state_scaling(benchmark, write_report):
    def sweep():
        points = [(n, kind) for n in FLOW_COUNTS for kind in SCHEMES]
        values = pool_map(_run_point, points, workers=bench_workers())
        rows = {n: {} for n in FLOW_COUNTS}
        for (n, kind), value in zip(points, values):
            rows[n][kind] = value
        return rows

    rows = once(benchmark, sweep)

    schemes = list(SCHEMES)
    table = format_table(
        ["flows"] + schemes,
        [[n] + [rows[n][s] for s in schemes] for n in FLOW_COUNTS],
    )

    small, large = FLOW_COUNTS[0], FLOW_COUNTS[-1]
    # O(1): flow-state does not grow with the flow count.
    assert rows[large]["corelite-selective"] == rows[small]["corelite-selective"] == 0
    assert rows[large]["csfq"] == rows[small]["csfq"] == 0
    # The marker cache is bounded by its configured size, not flow count.
    cache_bound = CoreliteConfig().marker_cache_size
    assert rows[large]["corelite-cache"] <= 2 * cache_bound  # two enabled dirs
    # O(n): the stateful disciplines track (almost) every active flow.
    assert rows[large]["wfq"] >= 0.5 * large
    assert rows[large]["wfq"] > 2 * rows[small]["wfq"] - 2
    assert rows[large]["fred"] > rows[small]["fred"]

    write_report(
        "state_scaling",
        "STATE — peak per-flow state entries at the bottleneck vs flow count\n"
        + table,
    )
