"""Turning child payloads into a report, printing it, and comparing two.

A report is plain JSON.  Per workload it holds the end-to-end metrics
(value = median over the runs, with quartiles, ``n`` and the samples), the
per-layer metrics of the traced run, the exact simulated block, and the
attempted / failed counts.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "END_TO_END",
    "Metric",
    "stat",
    "summarize_runs",
    "per_layer",
    "format_report",
    "compare_reports",
]


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "higher" | "lower"
    #: "host" quantities are noisy; "sim" ones repeat exactly per seed.
    kind: str
    #: Absolute slack of ``--check``: a metric is worse only when it moved
    #: by more than max(relative bound x base, this).
    abs_slack: float


#: The eight end-to-end metrics, in reporting order (README.md defines them).
END_TO_END: Dict[str, Metric] = {
    "pkts_per_s": Metric("pkts/s", "higher", "host", 0.0),
    "setup_s": Metric("s", "lower", "host", 0.05),
    "peak_rss_mb": Metric("MB", "lower", "host", 0.0),
    "wjain": Metric("index", "higher", "sim", 0.01),
    "rate_err_mean": Metric("fraction", "lower", "sim", 0.01),
    "loss_frac": Metric("fraction", "lower", "sim", 0.002),
    "converge_sim_s": Metric("sim_s", "lower", "sim", 2.0),
    "failed_frac": Metric("fraction", "lower", "sim", 0.0),
}


def stat(samples: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and ``n`` of one metric's samples."""
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }


def summarize_runs(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of one workload from its good untraced runs
    (``failed_frac`` is added once every check of the suite has run)."""
    sim = runs[0]["sim"]
    host = {
        "pkts_per_s": [run["sim"]["delivered"] / run["run_s"] for run in runs],
        "setup_s": [
            statistics.median(
                build + finalize
                for build, finalize in zip(run["build_s"], run["finalize_s"])
            )
            for run in runs
        ],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    out: Dict[str, Any] = {}
    for name, metric in END_TO_END.items():
        if name in host:
            out[name] = stat(host[name], metric.unit)
        elif name in sim:
            out[name] = stat([sim[name]], metric.unit)
    out["pkts_per_s"]["wall_value"] = statistics.median(
        run["sim"]["delivered"] / run["run_wall_s"] for run in runs
    )
    return out


def per_layer(
    traced: Dict[str, Any],
    untraced_run_s: float,
    serial_run_s: Optional[float],
) -> Dict[str, float]:
    """Per-layer metrics: the traced child's own, plus the ratios that need
    the untraced runs (``serial_run_s`` is dense_scalar's, for pdes_w2)."""
    out = dict(traced["layers"])
    out["trace.overhead_ratio"] = traced["run_s"] / untraced_run_s
    out["experiments.pdes.speedup"] = (
        serial_run_s / untraced_run_s if serial_run_s else 0.0
    )
    out["host.kernel_ms"] = traced["kernel_ms"]
    for name in ("rate_err_mean", "loss_frac", "converge_sim_s"):
        out[f"sim.{name}"] = traced["sim"][name]
    return out


# -- printing ------------------------------------------------------------


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def format_report(report: Dict[str, Any]) -> str:
    host = report["host"]
    lines = [
        f"corebench seed={report['seed']} scale={report['scale']:g} "
        f"cpu_count={host['cpu_count']} affinity={host['affinity']} "
        f"python={host['python']}",
        "host metrics are in calibrated seconds (hostclock.py); sim metrics repeat exactly per seed",
        "",
        f"{'workload':14s} {'metric':15s} {'unit':9s} {'kind':5s} "
        f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}",
    ]
    for name, entry in report["workloads"].items():
        for metric, stat in entry.get("end_to_end", {}).items():
            lines.append(
                f"{name:14s} {metric:15s} {stat['unit']:9s} {END_TO_END[metric].kind:5s} "
                f"{_fmt(stat['value']):>12s} {_fmt(stat['q1']):>12s} "
                f"{_fmt(stat['q3']):>12s} {stat['n']:3d}"
            )
        flags = " undersubscribed" if entry.get("undersubscribed") else ""
        lines.append(
            f"{name:14s} attempted={entry['attempted']} failed={entry['failed']} "
            f"fingerprint={entry.get('fingerprint', '-')[:16]}{flags}"
        )
        lines.extend(f"{name:14s} FAILED: {failure}" for failure in entry["failures"])
        lines.append("")
    layered = {n: e["per_layer"] for n, e in report["workloads"].items() if e.get("per_layer")}
    if layered:
        names = list(layered)
        lines.append("per-layer metrics (one traced run per workload; *_s are wall seconds of that run)")
        lines.append(f"{'metric':34s}" + "".join(f"{n:>14s}" for n in names))
        for metric in next(iter(layered.values())):
            lines.append(
                f"{metric:34s}" + "".join(f"{_fmt(layered[n][metric]):>14s}" for n in names)
            )
    return "\n".join(lines)


# -- comparing two reports ---------------------------------------------------


def _worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` (negative = better)."""
    return base - new if metric.better == "higher" else new - base


def _spread(stat: Dict[str, Any]) -> float:
    return (stat["q3"] - stat["q1"]) / abs(stat["value"]) if stat["value"] else 0.0


def _all_better(metric: Metric, base: Dict[str, Any], new: Dict[str, Any]) -> bool:
    if metric.better == "higher":
        return min(new["samples"]) > max(base["samples"])
    return max(new["samples"]) < min(base["samples"])


def _show(stat: Dict[str, Any]) -> str:
    return f"{_fmt(stat['value'])} [{_fmt(stat['q1'])}..{_fmt(stat['q3'])}] n={stat['n']}"


def compare_reports(
    base: Dict[str, Any], new: Dict[str, Any], bounds: Dict[str, float]
) -> Tuple[List[str], bool]:
    """One row per workload x end-to-end metric; returns (lines, passed).

    ``bounds`` are the relative bounds of BENCHMARK.json.  A metric is
    ``worse`` when the new median is worse than the base's by more than
    max(bound x base, the metric's absolute slack); ``unresolved`` when it
    is not, but either side's quartile spread is wider than the bound and
    the runs overlap; ``ok`` otherwise.  Every ratio is new / base.
    """
    lines = [
        f"{'workload':14s} {'metric':15s} {'base median [q1..q3] n':>36s} "
        f"{'new median [q1..q3] n':>36s} {'new/base':>9s} {'allowed':>9s} verdict"
    ]
    passed = True
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None or not new_entry.get("end_to_end"):
            lines.append(f"{name:14s} missing from the new report: worse")
            passed = False
            continue
        for metric_name, metric in END_TO_END.items():
            a = base_entry["end_to_end"][metric_name]
            b = new_entry["end_to_end"][metric_name]
            bound = bounds.get(metric_name, 0.0)
            allowed = max(bound * abs(a["value"]), metric.abs_slack)
            worse_by = _worsening(metric, a["value"], b["value"])
            if worse_by > allowed:
                verdict = "worse"
                passed = False
            elif (
                bound
                and max(_spread(a), _spread(b)) > bound
                and not _all_better(metric, a, b)
            ):
                verdict = "unresolved"
            else:
                verdict = "ok"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            lines.append(
                f"{name:14s} {metric_name:15s} {_show(a):>36s} {_show(b):>36s} "
                f"{ratio:9.3f} {_fmt(allowed):>9s} {verdict}"
            )
        if new_entry.get("fingerprint") != base_entry.get("fingerprint"):
            lines.append(f"{name:14s} fingerprint differs (simulated outcome changed)")
    return lines, passed
