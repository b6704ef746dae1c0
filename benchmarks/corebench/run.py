"""corebench: the repo's end-to-end + per-layer benchmark (see README.md).

    python3 benchmarks/corebench/run.py [--seed N] [--repeats R] [--workload W] [--out F]
    python3 benchmarks/corebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/corebench/run.py --smoke
    python3 benchmarks/corebench/run.py --check A.json B.json

Every measured run is its own ``--child`` subprocess with a hard timeout,
so a scalar cloud's arenas never depress a later run, peak RSS is per run,
and a wedged PDES worker costs one failed run instead of the suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark runs from a source checkout: no install, no PYTHONPATH needed.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.corebench import report as reporting  # noqa: E402

SCHEMA = 1
#: Untraced runs per workload when neither --repeats nor --seconds is given.
DEFAULT_REPEATS = 3
#: With --seconds, runs continue until this many have been made *and* the
#: time is spent: three is the fewest that gives a median and two quartiles.
MIN_RUNS = 3
#: Untraced runs a traced-only invocation (--trace 1) makes for its ratios.
TRACE_BASE_RUNS = 2
SMOKE_DIVISOR = 10.0
#: Shortest smoke horizon: the first ~2 simulated seconds deliver nothing.
SMOKE_MIN_HORIZON = 4.0
#: The contract allows one invocation 180 s; stop launching runs before that.
INVOCATION_BUDGET_S = 165.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="corebench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="CloudBuilder seed (default 0)")
    parser.add_argument("--repeats", type=int, help="untraced runs per workload")
    parser.add_argument("--seconds", type=float, help="measure each workload for this long")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end only; 1: per-layer (traced run); default: both. "
        "With --workload, also prints the one-line JSON result last.",
    )
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--trace-dir", default=str(HERE / "out"), help="where trace_<workload>.json goes")
    parser.add_argument("--timeout", type=float, default=180.0, help="hard limit per run, seconds")
    parser.add_argument("--smoke", action="store_true", help="horizons / 10, one repeat, all workloads + traced")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"), help="compare two reports")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--horizon", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child runs ----------------------------------------------------------------


def _child(args: argparse.Namespace) -> int:
    from benchmarks.corebench.measure import run_once
    from benchmarks.corebench.workloads import WORKLOADS

    payload = run_once(
        WORKLOADS[args.workload], args.seed, args.horizon, args.traced, args.trace_file
    )
    print(json.dumps(payload))
    return 0


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the run and anything it spawned (PDES workers outlive a killed
    coordinator otherwise), then wait until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def launch_run(
    name: str,
    seed: int,
    horizon: float,
    timeout: float,
    traced: bool = False,
    trace_file: Optional[str] = None,
) -> Dict[str, Any]:
    """One run in a fresh subprocess: its payload, or ``{"error": ...}``."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(seed), "--horizon", repr(horizon),
    ]
    if traced:
        command.append("--traced")
    if trace_file:
        command += ["--trace-file", trace_file]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    _kill_group(proc)
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"exit code {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "run printed no result"}


# -- one workload ----------------------------------------------------------------


def check_run(payload: Dict[str, Any], floor: Optional[float]) -> Optional[str]:
    """The per-run correctness checks; ``None`` when the run passes."""
    if "error" in payload:
        return payload["error"]
    sim = payload["sim"]
    if sim["delivered"] <= 0:
        return "delivered nothing"
    if floor is not None and sim["wjain"] < floor:
        return f"wjain {sim['wjain']:.4f} below the floor {floor}"
    return None


def measure_workload(
    workload,
    args: argparse.Namespace,
    scale: float,
    repeats: Optional[int],
    seconds: Optional[float],
    trace: bool,
    deadline: float,
) -> Dict[str, Any]:
    """All runs of one workload and their summary (one report entry):
    ``repeats`` untraced runs (or at least MIN_RUNS and ``seconds`` of them),
    then the traced one."""
    horizon = workload.horizon
    floor: Optional[float] = workload.wjain_floor
    if scale != 1.0:
        # Fairness has not converged on a shortened horizon.
        horizon = max(SMOKE_MIN_HORIZON, horizon / scale)
        floor = None
    runs: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = 0
    started = time.monotonic()

    def one(traced: bool = False, trace_file: Optional[str] = None) -> Optional[Dict[str, Any]]:
        nonlocal attempted
        attempted += 1
        left = deadline - time.monotonic()
        payload = (
            launch_run(
                workload.name, args.seed, horizon, min(args.timeout, left), traced, trace_file
            )
            if left > 1.0
            else {"error": "invocation out of time"}
        )
        problem = check_run(payload, floor)
        if problem is None and runs and payload["sim"] != runs[0]["sim"]:
            which = "traced" if traced else "repeated"
            problem = f"{which} run is not a replay: simulated results differ for one seed"
        if problem is not None:
            failures.append(f"run {attempted}{' (traced)' if traced else ''}: {problem}")
            return None
        return payload

    while True:
        payload = one()
        if payload is not None:
            runs.append(payload)
        if repeats is not None:
            if attempted >= repeats:
                break
        elif attempted >= MIN_RUNS and time.monotonic() - started >= seconds:
            break
        if time.monotonic() >= deadline:
            break

    traced_payload = None
    trace_file = os.path.join(args.trace_dir, f"trace_{workload.name}.json")
    if trace and runs:
        os.makedirs(args.trace_dir, exist_ok=True)
        traced_payload = one(traced=True, trace_file=trace_file)

    entry: Dict[str, Any] = {
        "why": workload.why,
        "horizon": horizon,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "undersubscribed": workload.partitions > len(os.sched_getaffinity(0)),
    }
    if runs:
        entry["fingerprint"] = runs[0]["sim"]["fingerprint"]
        entry["sim"] = runs[0]["sim"]
        entry["end_to_end"] = reporting.summarize_runs(runs)
        entry["run_s"] = statistics.median(run["run_s"] for run in runs)
        entry["kernel_ms"] = [run["kernel_ms"] for run in runs]
    if traced_payload is not None:
        entry["trace_file"] = os.path.relpath(trace_file, ROOT)
        entry["traced"] = traced_payload
    return entry


# -- the suite -------------------------------------------------------------------


def host_info() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_benchmark_json() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_suite(args: argparse.Namespace) -> int:
    try:
        from benchmarks.corebench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"corebench: no simulator to measure under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1

    if args.workload and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of {list(WORKLOADS)}", file=sys.stderr)
        return 2
    contract = args.workload is not None and args.trace is not None
    names = [args.workload] if args.workload else list(WORKLOADS)
    scale = SMOKE_DIVISOR if args.smoke else 1.0
    repeats, seconds = args.repeats, args.seconds
    if args.smoke:
        repeats = 1
    elif args.trace == 1 and repeats is None:
        # Per-layer only: the untraced runs are just the base of its ratios.
        repeats, seconds = TRACE_BASE_RUNS, None
    elif repeats is None and seconds is None:
        repeats = DEFAULT_REPEATS
    deadline = time.monotonic() + (INVOCATION_BUDGET_S if contract else float("inf"))
    want_trace = args.trace != 0

    def measure(name: str, trace: bool, runs: Optional[int], secs: Optional[float]) -> Dict[str, Any]:
        return measure_workload(WORKLOADS[name], args, scale, runs, secs, trace, deadline)

    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "benchmark": "corebench",
        "seed": args.seed,
        "scale": scale,
        "host": host_info(),
        "workloads": {},
    }
    for name in names:
        report["workloads"][name] = measure(name, want_trace, repeats, seconds)

    # The serial twin is the base of the PDES speedup; a single-workload
    # traced invocation of pdes_w2 measures it itself.
    serial = report["workloads"].get("dense_scalar")
    if serial is None and want_trace and "pdes_w2" in names:
        serial = measure("dense_scalar", False, TRACE_BASE_RUNS, None)
        report["speedup_base"] = {k: serial.get(k) for k in ("run_s", "attempted", "failures")}
    twin = report["workloads"].get("pdes_w2")
    if twin and serial and twin.get("fingerprint") != serial.get("fingerprint"):
        twin["failures"].append("fingerprint differs from dense_scalar's")
        twin["failed"] += 1
    for name, entry in report["workloads"].items():
        traced = entry.pop("traced", None)
        if traced is not None:
            serial_run_s = serial.get("run_s") if serial and name == "pdes_w2" else None
            entry["per_layer"] = reporting.per_layer(traced, entry["run_s"], serial_run_s)
        if "end_to_end" in entry:
            entry["end_to_end"]["failed_frac"] = reporting.stat(
                [entry["failed"] / entry["attempted"]], reporting.END_TO_END["failed_frac"].unit
            )

    print(reporting.format_report(report))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    measured = all("end_to_end" in entry for entry in report["workloads"].values())
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    if contract:
        if not measured or (want_trace and "per_layer" not in report["workloads"][args.workload]):
            return 1
        print(json.dumps(contract_result(report["workloads"][args.workload], want_trace)))
        return 0
    return 0 if measured and not failed else 1


def contract_result(entry: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The one-line result the benchmark contract asks for."""
    spec = load_benchmark_json()
    if traced:
        metrics = {
            m["name"]: {"value": entry["per_layer"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": entry["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def run_check(paths: List[str]) -> int:
    with open(paths[0]) as a, open(paths[1]) as b:
        base, new = json.load(a), json.load(b)
    bounds = {m["name"]: m["bound"] for m in load_benchmark_json()["end_to_end"]}
    lines, passed = reporting.compare_reports(base, new, bounds)
    print("\n".join(lines))
    print("check:", "pass" if passed else "FAIL (worse, or failed_frac rose)")
    return 0 if passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if args.check:
        return run_check(args.check)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
