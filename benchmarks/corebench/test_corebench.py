"""Self-test of the benchmark (``pytest benchmarks/corebench``; tier-1's
``testpaths`` does not collect it)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from benchmarks.corebench import run as corebench  # puts src/ on sys.path
from benchmarks.corebench import hostclock, measure, report, tracing
from benchmarks.corebench.workloads import WORKLOADS

RUN_PY = str(corebench.HERE / "run.py")


# -- --smoke: every workload, untraced + traced, end to end --------------------


def test_smoke_runs_all_workloads_with_traces(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--smoke", "--out", str(out), "--trace-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60, f"--smoke took {elapsed:.0f} s"
    smoke = json.loads(out.read_text())
    assert list(smoke["workloads"]) == list(WORKLOADS)
    spec = corebench.load_benchmark_json()
    for name, entry in smoke["workloads"].items():
        assert entry["failed"] == 0, entry["failures"]
        assert entry["attempted"] == 2  # one untraced run + the traced one
        assert set(entry["end_to_end"]) == set(report.END_TO_END)
        assert {m["name"] for m in spec["per_layer"]} <= set(entry["per_layer"])
        assert (tmp_path / f"trace_{name}.json").exists()
        assert name in proc.stdout
    # Self times add up to the traced run (the acceptance bound is 5 %).
    for name in ("paper_chain4", "csfq_chain4", "dense_scalar", "dense_vec"):
        layers = smoke["workloads"][name]["per_layer"]
        assert layers["trace.self_sum_s"] == pytest.approx(layers["trace.run_s"], rel=0.05)
        assert layers["sim.engine.events"] > 0
    assert smoke["workloads"]["csfq_chain4"]["per_layer"]["core.router.self_s"] == 0
    assert smoke["workloads"]["csfq_chain4"]["per_layer"]["csfq.router.receive_calls"] > 0
    # The partitioned run is byte-identical to its serial twin.
    assert (
        smoke["workloads"]["pdes_w2"]["fingerprint"]
        == smoke["workloads"]["dense_scalar"]["fingerprint"]
    )
    assert smoke["workloads"]["pdes_w2"]["per_layer"]["experiments.pdes.barriers"] > 0
    assert smoke["workloads"]["pdes_w2"]["per_layer"]["experiments.pdes.speedup"] > 0
    trace = json.loads((tmp_path / "trace_paper_chain4.json").read_text())
    assert 0 < trace["raw_spans_kept"] <= tracing.RAW_SPANS
    assert {"layer", "op", "parent", "count", "total_s", "self_s"} == set(trace["aggregates"][0])


def test_benchmark_json_names_what_the_code_measures():
    spec = corebench.load_benchmark_json()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for metric in spec["end_to_end"]:
        known = report.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (known.unit, known.better)
    assert spec["command"][-1] == "benchmarks/corebench/run.py"


def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "nope", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "unknown workload" in proc.stderr


# -- span arithmetic ---------------------------------------------------------------


def test_span_self_time_on_a_synthetic_nest(monkeypatch):
    """a(10 s) > [b(3 s) > c(1 s)], b(2 s): self = span minus child spans."""
    now = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: now[0])
    tracer = tracing.Tracer(keep_raw=3)

    def spend(seconds, *children):
        now[0] += seconds
        for child in children:
            child()

    def c():
        tracer.span("L3", "c", spend, 1.0)

    def b_with_c():
        tracer.span("L2", "b", spend, 2.0, c)  # 2 s own + 1 s in c

    def b_plain():
        tracer.span("L2", "b", spend, 2.0)

    tracer.span("L1", "a", spend, 5.0, b_with_c, b_plain)
    agg = tracer.agg
    assert agg[("L1", "a", "")] == [1, 10.0, 5.0]
    assert agg[("L2", "b", "L1")] == [2, 5.0, 4.0]
    assert agg[("L3", "c", "L2")] == [1, 1.0, 1.0]
    assert sum(v[2] for v in agg.values()) == agg[("L1", "a", "")][1]
    assert tracing.self_time(agg, "L2") == 4.0 and tracing.total(agg, "L2", "b") == 5.0
    assert tracing.count(agg, "L2", "b") == 2
    assert len(tracer.raw) == 3  # capped; the aggregates still hold all four spans
    # Spans that closed between two snapshots.
    before = tracer.snapshot()
    tracer.span("L2", "b", spend, 4.0)
    assert tracing.between(tracer.snapshot(), before) == {("L2", "b", ""): [1, 4.0, 4.0]}


def test_span_closes_when_the_callee_raises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("L", "op", boom)
    assert tracer.agg[("L", "op", "")][0] == 1 and not tracer._stack


def test_dispatched_callbacks_are_attributed_to_their_owners_module():
    from repro.sim.engine import Simulator

    tracer = tracing.Tracer()
    fired = []
    with tracing.tracing(tracer):
        sim = Simulator()
        sim.schedule_fast(1.0, fired.append, "fast")
        sim.every(1.0, lambda: fired.append("tick"))
        sim.run(until=2.0)
    assert fired == ["fast", "tick", "tick"]
    # PeriodicTask._fire belongs to the engine; list.append has no module of
    # ours; the lambda is this test module's.
    assert tracing.count(tracer.agg, "sim.engine", "_fire") == 2
    assert tracing.dispatched(tracer.agg, __name__) == 2
    assert tracer.agg[("sim.engine", "run", "")][0] == 1


# -- wrappers come off --------------------------------------------------------------


def _patched_attributes():
    from repro.core.edge import CoreliteEdge
    from repro.core.router import CoreliteCoreRouter
    from repro.csfq.edge import CsfqEdge
    from repro.csfq.router import CsfqCoreRouter
    from repro.experiments.builder import Cloud, CloudBuilder
    from repro.experiments.pdes import ParallelCloud
    from repro.sim.control import ControlPlane
    from repro.sim.engine import Simulator

    names = {
        Simulator: ("run", "schedule", "schedule_at", "schedule_fast", "schedule_at_fast",
                    "reschedule", "every", "inject"),
        CoreliteEdge: ("receive", "receive_feedback"),
        CoreliteCoreRouter: ("receive",),
        CsfqEdge: ("receive", "receive_loss_notify"),
        CsfqCoreRouter: ("receive",),
        ControlPlane: ("send",),
        CloudBuilder: ("build", "build_parallel"),
        Cloud: ("run", "finalize", "reference_rates"),
        ParallelCloud: ("start", "execute"),
    }
    return {(cls, name): cls.__dict__[name] for cls, attrs in names.items() for name in attrs}


def test_wrappers_are_fully_removed_after_a_traced_run():
    before = _patched_attributes()
    workload = WORKLOADS["paper_chain4"]
    tracer = tracing.Tracer()
    with tracing.tracing(tracer):
        during = _patched_attributes()
        assert all(during[key] is not before[key] for key in before)
        cloud = workload.make_builder(0).build()
        links = list(cloud.topology.links.values())
        assert all(hasattr(link.send, "__wrapped__") for link in links)
        cloud.run(until=3.0)
    after = _patched_attributes()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(link.send, "__wrapped__") for link in links)
    assert tracing.count(tracer.agg, "sim.link", "send") > 0
    assert tracing.count(tracer.agg, "core.router", "receive") > 0


def test_traced_run_replays_the_untraced_one():
    workload = WORKLOADS["csfq_chain4"]
    plain = measure.run_once(workload, seed=3, horizon=6.0)
    traced = measure.run_once(workload, seed=3, horizon=6.0, traced=True)
    assert traced["sim"] == plain["sim"]
    assert traced["layers"]["csfq.router.receive_calls"] > 0


# -- fingerprint, metrics, host clock ------------------------------------------------


def _result(delivered):
    return SimpleNamespace(
        flows={fid: SimpleNamespace(delivered=count) for fid, count in delivered.items()}
    )


def test_fingerprint_is_stable_and_sensitive():
    a = measure.fingerprint(_result({1: 10, 2: 20, 3: 30}))
    assert a == measure.fingerprint(_result({3: 30, 1: 10, 2: 20}))  # order-free
    assert a != measure.fingerprint(_result({1: 10, 2: 21, 3: 30}))
    assert len(a) == 64


def test_weighted_jain():
    assert measure.weighted_jain([10.0, 20.0, 30.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert measure.weighted_jain([10.0, 0.0], [1.0, 1.0]) == pytest.approx(0.5)
    assert measure.weighted_jain([0.0, 0.0], [1.0, 1.0]) == 0.0


def test_calibrated_seconds_scale_with_the_kernel():
    ref = hostclock.KERNEL_REF_S
    assert hostclock.calibrated(6.0, [ref, ref]) == pytest.approx(6.0)
    # A host running the kernel 1.5x slower ran the region 1.5x slower too.
    assert hostclock.calibrated(6.0, [1.5 * ref] * 4) == pytest.approx(4.0)
    assert hostclock.kernel_seconds() > 0


# -- --check ----------------------------------------------------------------------


def _report(pkts, setup=1.0, wjain=0.99, failed=0.0, spread=0.0):
    def stat(value, rel=0.0):
        lo, hi = value * (1 - rel), value * (1 + rel)
        return {"value": value, "unit": "", "q1": lo, "q3": hi, "n": 3, "samples": [lo, value, hi]}

    values = {
        "pkts_per_s": stat(pkts, spread), "setup_s": stat(setup), "peak_rss_mb": stat(100.0),
        "wjain": stat(wjain), "rate_err_mean": stat(0.05), "loss_frac": stat(0.01),
        "converge_sim_s": stat(10.0), "failed_frac": stat(failed),
    }
    return {"workloads": {"w": {"end_to_end": values, "fingerprint": "f"}}}


BOUNDS = {"pkts_per_s": 0.10, "setup_s": 0.25, "peak_rss_mb": 0.10, "wjain": 0.01}


def _verdicts(base, new):
    lines, passed = report.compare_reports(base, new, BOUNDS)
    return {line.split()[1]: line.split()[-1] for line in lines[1:]}, passed


def test_check_verdicts_on_hand_made_reports():
    verdicts, passed = _verdicts(_report(1000.0), _report(950.0))
    assert passed and set(verdicts.values()) == {"ok"}
    verdicts, passed = _verdicts(_report(1000.0), _report(880.0))
    assert not passed and verdicts["pkts_per_s"] == "worse"
    # Higher is better: a faster report is never worse.
    assert _verdicts(_report(1000.0), _report(1500.0))[1]
    # Within the bound, but the runs spread wider than it and overlap.
    verdicts, passed = _verdicts(_report(1000.0, spread=0.2), _report(990.0, spread=0.2))
    assert passed and verdicts["pkts_per_s"] == "unresolved"
    # ...unless every new run beats every base run.
    verdicts, _ = _verdicts(_report(1000.0, spread=0.12), _report(2000.0, spread=0.12))
    assert verdicts["pkts_per_s"] == "ok"
    # Absolute slack: 0.05 s of setup and 0.01 of wjain are noise, more is not.
    assert _verdicts(_report(1000.0, setup=0.01), _report(1000.0, setup=0.05))[1]
    assert not _verdicts(_report(1000.0), _report(1000.0, wjain=0.97))[1]
    # Any rise of failed_frac fails the check.
    verdicts, passed = _verdicts(_report(1000.0), _report(1000.0, failed=0.25))
    assert not passed and verdicts["failed_frac"] == "worse"


def test_check_command_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report(1000.0)))
    b.write_text(json.dumps(_report(700.0)))
    assert corebench.main(["--check", str(a), str(a)]) == 0
    assert corebench.main(["--check", str(a), str(b)]) == 1


def test_failed_runs_are_counted_not_fatal():
    assert corebench.check_run({"error": "timed out after 1 s"}, 0.9) == "timed out after 1 s"
    assert "floor" in corebench.check_run({"sim": {"delivered": 5, "wjain": 0.5}}, 0.9)
    assert corebench.check_run({"sim": {"delivered": 0, "wjain": 1.0}}, None) == "delivered nothing"
    assert corebench.check_run({"sim": {"delivered": 5, "wjain": 0.95}}, 0.9) is None
