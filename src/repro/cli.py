"""Command-line interface.

``corelite`` (or ``python -m repro``) regenerates any of the paper's
figures or ablations from the terminal::

    corelite list
    corelite fig5_6 --duration 80 --seed 1
    corelite fig3_4 --scale 0.25 --json out.json --svg-dir figs/
    corelite ablation feedback
    corelite run my_scenario.json        # declarative DSL
    corelite batch my_scenario.json --num-seeds 4 --workers 4
    corelite report                      # verify all paper claims (exit 1 if one fails)

Each figure command prints the paper-style measured-vs-expected table and
an ASCII rendition of the figure's rate curves; ``--csv-dir``/``--svg-dir``
export the raw series and paper-like charts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from repro._version import __version__
from repro.errors import ConfigurationError, FlowError, TopologyError
from repro.experiments import figures
from repro.experiments.ablations import (
    compare_congestion_estimators,
    compare_feedback_schemes,
    compare_queue_disciplines,
    compare_traffic_patterns,
    sweep_alpha,
    sweep_beta,
    sweep_core_epoch,
    sweep_edge_epoch,
    sweep_fn_k,
    sweep_k1,
    sweep_qthresh,
)
from repro.experiments.report import (
    ascii_chart,
    format_table,
    rate_comparison_table,
    save_series_csv,
)
from repro.experiments.runner import RunResult

__all__ = ["main"]

_FIGNAMES = ("fig3_4", "fig5_6", "fig7_8", "fig9_10")
#: Simulated seconds a comparison figure runs when ``--duration`` is not
#: given (fig9_10's churn schedule needs twice the others').
_FIG_DURATIONS = {"fig5_6": 80.0, "fig7_8": 80.0, "fig9_10": 160.0}
_ABLATIONS = {
    "edge-epoch": sweep_edge_epoch,
    "core-epoch": sweep_core_epoch,
    "qthresh": sweep_qthresh,
    "fn-k": sweep_fn_k,
    "k1": sweep_k1,
    "feedback": compare_feedback_schemes,
    "aqm": compare_queue_disciplines,
    "traffic": compare_traffic_patterns,
    "alpha": sweep_alpha,
    "beta": sweep_beta,
    "estimator": compare_congestion_estimators,
}


def _result_payload(result: RunResult, window) -> Dict:
    rates = result.mean_rates(window)
    expected = result.expected_rates(at_time=sum(window) / 2)
    return {
        "scheme": result.scheme,
        "duration": result.duration,
        "drops": result.total_drops,
        "losses": result.total_losses(),
        "mean_rates": {str(k): v for k, v in rates.items()},
        "expected_rates": {str(k): v for k, v in expected.items()},
        "rate_series": {
            str(fid): record.rate_series.as_rows()
            for fid, record in result.flows.items()
        },
    }


def _print_result(result: RunResult, window, chart: bool = True) -> None:
    rates = result.mean_rates(window)
    expected = result.expected_rates(at_time=sum(window) / 2)
    print(f"\n== {result.scheme} (window {window[0]:.0f}-{window[1]:.0f} s) ==")
    print(
        rate_comparison_table(
            rates,
            expected,
            result.weights(),
            losses={fid: r.losses for fid, r in result.flows.items()},
        )
    )
    drops = f"total drops: {result.total_drops}   policy drops: {result.policy_drops}"
    print(f"{drops}   total losses: {result.total_losses()}")
    if result.dynamics and result.dynamics.get("events"):
        from repro.fairness.metrics import reconvergence_time, transient_dip

        dyn = result.dynamics
        event_time = max(event["time"] for event in dyn["events"])
        throughput = {
            fid: record.throughput_series for fid, record in result.flows.items()
        }
        settled = reconvergence_time(throughput, dyn["post_reference"], event_time)
        dip = transient_dip(throughput, event_time)
        print(
            f"dynamics: {len(dyn['events'])} event(s), "
            f"{len(dyn['events'])} reroute(s), "
            f"{dyn['failure_drops']} failure drop(s)"
        )
        print(
            "re-convergence after last event (t="
            f"{event_time:g}s): "
            + ("never settled" if settled is None else f"{settled:.1f} s to Jain>=0.9")
            + f"   transient dip: {dip:.2f}x baseline"
        )
    if chart:
        series = {
            str(fid): result.flows[fid].rate_series for fid in result.flow_ids[:9]
        }
        print()
        print(ascii_chart(series, title=f"{result.scheme}: allotted rate (pkt/s)"))


def _export_csv(args: argparse.Namespace, name: str, results) -> None:
    if not getattr(args, "csv_dir", None):
        return
    import os

    os.makedirs(args.csv_dir, exist_ok=True)
    for scheme, result in results:
        path = os.path.join(args.csv_dir, f"{name}_{scheme}_rates.csv")
        save_series_csv(
            path,
            {f"flow{fid}": result.flows[fid].rate_series for fid in result.flow_ids},
        )
        print(f"wrote {path}")


def _export_svg(args: argparse.Namespace, name: str, results) -> None:
    if not getattr(args, "svg_dir", None):
        return
    import os

    from repro.experiments.svg import save_series_svg

    os.makedirs(args.svg_dir, exist_ok=True)
    for scheme, result in results:
        path = os.path.join(args.svg_dir, f"{name}_{scheme}.svg")
        save_series_svg(
            path,
            {
                f"flow {fid} (w={result.flows[fid].weight:g})":
                result.flows[fid].rate_series
                for fid in result.flow_ids
            },
            title=f"{name} — {scheme}: allotted rate",
        )
        print(f"wrote {path}")


def _run_figure(args: argparse.Namespace) -> Dict:
    name = args.figure
    if name == "fig3_4":
        fig = figures.figure3_4(scale=args.scale, seed=args.seed)
        window = fig.phase_window(2)
        _print_result(fig.result, window, chart=not args.no_chart)
        _export_csv(args, name, [("corelite", fig.result)])
        _export_svg(args, name, [("corelite", fig.result)])
        return {"figure": name, "corelite": _result_payload(fig.result, window)}
    duration = _FIG_DURATIONS[name] if args.duration is None else args.duration
    if name == "fig5_6":
        cmp = figures.figure5_6(duration=duration, seed=args.seed)
    elif name == "fig7_8":
        cmp = figures.figure7_8(duration=duration, seed=args.seed)
    else:
        cmp = figures.figure9_10(duration=duration, seed=args.seed)
    window = (0.75 * duration, duration)
    _print_result(cmp.corelite, window, chart=not args.no_chart)
    _print_result(cmp.csfq, window, chart=not args.no_chart)
    _export_csv(args, name, cmp.schemes())
    _export_svg(args, name, cmp.schemes())
    return {
        "figure": name,
        "corelite": _result_payload(cmp.corelite, window),
        "csfq": _result_payload(cmp.csfq, window),
    }


def _run_ablation(args: argparse.Namespace) -> Dict:
    sweep = _ABLATIONS[args.name]
    points = sweep(duration=args.duration, seed=args.seed)
    headers = ["value", "drops", "losses", "weighted jain", "MAE pkt/s"]
    print(format_table(headers, [p.as_row() for p in points], float_format="{:.3f}"))
    return {
        "ablation": args.name,
        "points": [
            {
                "value": str(p.value),
                "drops": p.drops,
                "losses": p.losses,
                "weighted_jain": p.weighted_jain,
                "mae": p.mae_vs_expected,
            }
            for p in points
        ],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corelite",
        description="Reproduce the Corelite (ICDCS 2000) evaluation figures.",
    )
    parser.add_argument("--version", action="version", version=f"corelite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figures and ablations")

    for name in _FIGNAMES:
        p = sub.add_parser(name, help=f"regenerate paper {name.replace('_', '/')}")
        p.add_argument("--seed", type=int, default=0)
        if name in _FIG_DURATIONS:
            duration_help = f"simulated seconds (default {_FIG_DURATIONS[name]:g})"
        else:
            duration_help = "unused: fig3_4 is sized by --scale"
        p.add_argument("--duration", type=float, default=None, help=duration_help)
        p.add_argument("--scale", type=float, default=0.25,
                       help="time compression for fig3_4 (1.0 = the paper's 800 s)")
        p.add_argument("--json", type=str, default=None, help="write results to a file")
        p.add_argument("--csv-dir", type=str, default=None,
                       help="also export each scheme's rate series as CSV")
        p.add_argument("--svg-dir", type=str, default=None,
                       help="also render each scheme's figure as an SVG chart")
        p.add_argument("--no-chart", action="store_true")
        p.set_defaults(figure=name, handler=_run_figure)

    ab = sub.add_parser("ablation", help="run a parameter ablation")
    ab.add_argument("name", choices=sorted(_ABLATIONS))
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument("--duration", type=float, default=80.0)
    ab.add_argument("--json", type=str, default=None)
    ab.set_defaults(handler=_run_ablation)

    batch = sub.add_parser(
        "batch",
        help="run a scenario under many seeds, optionally in parallel",
        description="Fan one declarative scenario out across seeds over a "
        "process pool, with an on-disk result cache keyed by the scenario "
        "content; prints per-seed scalars and the cross-seed mean/CI table.",
    )
    batch.add_argument("scenario", type=str, help="path to a scenario JSON file")
    batch.add_argument("--seeds", type=str, default=None,
                       help="comma-separated explicit seeds (e.g. 0,1,2,3)")
    batch.add_argument("--num-seeds", type=int, default=4,
                       help="derive this many seeds when --seeds is not given")
    batch.add_argument("--base-seed", type=int, default=0,
                       help="root of the derived-seed sequence")
    batch.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = run inline, serially)")
    batch.add_argument("--cache-dir", type=str, default=".repro-cache",
                       help="result cache directory (reruns of unchanged "
                            "sweeps are near-instant)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    batch.add_argument("--json", type=str, default=None)
    batch.set_defaults(handler=_run_batch)

    run = sub.add_parser(
        "run", help="run a declarative scenario from a JSON file"
    )
    run.add_argument("scenario", type=str, help="path to a scenario JSON file")
    run.add_argument("--json", type=str, default=None)
    run.add_argument("--no-chart", action="store_true")
    run.add_argument("--profile", type=str, default=None, metavar="STATS",
                     help="run under cProfile and dump pstats data to a file")
    run.set_defaults(handler=_run_scenario_file)

    rp = sub.add_parser(
        "report",
        help="rerun every experiment and print a paper-vs-measured markdown "
             "report; exit 1 if a claim fails",
    )
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--scale", type=float, default=0.25,
                    help="time compression for the 800 s §4.1 scenario "
                         "(below ~0.2 the phases end before rates settle)")
    rp.add_argument("--duration", type=float, default=80.0)
    rp.add_argument("--out", type=str, default=None, help="also write to a file")
    rp.set_defaults(handler=_run_report)

    return parser


def _run_batch(args: argparse.Namespace) -> Dict:
    import time

    from repro.experiments.parallel import (
        BatchRunner,
        BatchTask,
        ScenarioSpec,
        batch_metrics,
        batch_summary_table,
        expand_tasks,
        scalar_metrics,
    )
    from repro.experiments.report import format_table

    spec = ScenarioSpec.from_file(args.scenario)
    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise SystemExit(
                f"corelite batch: --seeds must be comma-separated integers, "
                f"got {args.seeds!r}"
            ) from None
        tasks = [BatchTask(spec, seed) for seed in seeds]
    else:
        tasks = expand_tasks(spec, args.num_seeds, base_seed=args.base_seed)
    runner = BatchRunner(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    started = time.perf_counter()
    results = runner.run(tasks)
    wall = time.perf_counter() - started

    rows = []
    per_seed = []
    for item in results:
        result = item.result
        window = (0.75 * result.duration, result.duration)
        metrics = scalar_metrics(result, window)
        rows.append(
            [
                item.task.seed,
                "hit" if item.cached else "run",
                metrics["weighted_jain"],
                int(metrics["delivered"]),
                int(metrics["losses"]),
                int(metrics["drops"]),
            ]
        )
        per_seed.append({"seed": item.task.seed, "cached": item.cached, **metrics})
    hits = sum(1 for item in results if item.cached)
    print(f"\n== batch {spec.name!r}: {len(results)} tasks, "
          f"{args.workers} worker(s), {hits} cache hit(s), {wall:.2f} s ==")
    print(format_table(
        ["seed", "cache", "weighted jain", "delivered", "losses", "drops"],
        rows,
        float_format="{:.4f}",
    ))
    summaries = batch_metrics(results)
    print("\nacross seeds:")
    print(batch_summary_table(summaries))
    return {
        "scenario": args.scenario,
        "workers": args.workers,
        "wall_seconds": wall,
        "cache_hits": hits,
        "tasks": per_seed,
        "summary": {
            name: {
                "mean": s.mean,
                "stdev": s.stdev,
                "lo": s.lo,
                "hi": s.hi,
                "values": list(s.values),
            }
            for name, s in summaries.items()
        },
    }


class _maybe_profile:
    """Context manager: cProfile the body and dump stats when a path is set."""

    def __init__(self, stats_path: Optional[str]) -> None:
        self._path = stats_path
        self._profile = None

    def __enter__(self):
        if self._path:
            import cProfile

            self._profile = cProfile.Profile()
            self._profile.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._profile is not None:
            self._profile.disable()
            import os

            parent = os.path.dirname(self._path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._profile.dump_stats(self._path)
            print(f"wrote cProfile stats to {self._path} "
                  f"(inspect with: python -m pstats {self._path})")


def _run_scenario_file(args: argparse.Namespace) -> Dict:
    from repro.experiments.scenario_dsl import load_scenario_file, run_scenario

    scenario = load_scenario_file(args.scenario)
    with _maybe_profile(getattr(args, "profile", None)):
        result = run_scenario(scenario)
    duration = result.duration
    window = (0.75 * duration, duration)
    _print_result(result, window, chart=not args.no_chart)
    return {"scenario": args.scenario, result.scheme: _result_payload(result, window)}


def _run_report(args: argparse.Namespace) -> Dict:
    from repro.experiments.validation import build_report

    report = build_report(scale=args.scale, duration=args.duration, seed=args.seed)
    markdown = report.to_markdown()
    print(markdown)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown + "\n")
        print(f"\nwrote {args.out}")
    return {
        "passed": report.passed,
        "total": len(report.checks),
        "all_passed": report.all_passed,
    }


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        print("figures:   " + "  ".join(_FIGNAMES))
        print("ablations: " + "  ".join(sorted(_ABLATIONS)))
        return 0
    try:
        payload = args.handler(args)
        if getattr(args, "json", None):
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
            print(f"\nwrote {args.json}")
    except (ConfigurationError, TopologyError, FlowError, OSError) as exc:
        # Bad input, reported as argparse reports a bad argument.  A
        # SimulationError is a bug and keeps its traceback.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    if args.command == "report" and not payload["all_passed"]:
        return 1  # a failed paper claim fails the command; CI gates on it
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
