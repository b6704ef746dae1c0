"""The paper's claims, defined once.

``build_report()`` reruns every figure of §4 (at a configurable time scale
/ duration), the §3.1 / §3.2 / §4.4 ablations, the §1 state thesis, two
extensions and a five-seed replication, and renders one markdown row per
claim.  Each row runs its experiment once and passes only if every one of
its conditions holds; the bounds below are the only copy of each claim in
the repo.  ``corelite report`` prints the table and exits 1 when a row
fails.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.core.cache_feedback import MARKER_CACHE_SIZE
from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    compare_congestion_estimators,
    compare_feedback_schemes,
    compare_queue_disciplines,
    compare_traffic_patterns,
    sweep_core_epoch,
    sweep_core_state,
    sweep_fn_k,
    sweep_k1,
    sweep_qthresh,
)
from repro.experiments.builder import CloudBuilder
from repro.experiments.figures import figure3_4, figure5_6, figure7_8, figure9_10
from repro.experiments.parallel import BatchRunner, ScenarioSpec
from repro.experiments.runner import RunResult
from repro.experiments.topospec import FlowSpec, TopologySpec
from repro.fairness.metrics import convergence_time, mean_absolute_error

__all__ = ["CheckResult", "ReproReport", "build_report"]

#: One-way propagation of the §4.2 path: access, core and access link at 40 ms.
_PROPAGATION = 0.120


@dataclass
class CheckResult:
    """One paper claim, verified or not."""

    experiment: str
    claim: str
    measured: str
    passed: bool


@dataclass
class ReproReport:
    """All checks plus a markdown rendering."""

    checks: List[CheckResult] = field(default_factory=list)

    def add(self, experiment: str, claim: str, measured: str,
            passed: bool, *more: bool) -> None:
        """One row: it passes only if ``passed`` and every one of ``more`` hold."""
        self.checks.append(
            CheckResult(experiment, claim, measured, passed and all(more))
        )

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_markdown(self) -> str:
        lines = [
            "# Corelite reproduction report",
            "",
            f"{self.passed}/{len(self.checks)} paper claims verified.",
            "",
            "| experiment | paper claim | measured | ok |",
            "|---|---|---|---|",
        ]
        for c in self.checks:
            mark = "yes" if c.passed else "**NO**"
            lines.append(f"| {c.experiment} | {c.claim} | {c.measured} | {mark} |")
        return "\n".join(lines)


def _worst_error(rates: Mapping[int, float], expected: Mapping[int, float]) -> float:
    """Largest per-flow relative error against the expectation."""
    return max(abs(rates[f] - e) / e for f, e in expected.items())


def _settling(result: RunResult, expected: Mapping[int, float]) -> Tuple[float, int]:
    """Mean convergence time (±30 %, held 10 s) of the flows that settle
    (inf if none does), and how many settle."""
    times = (convergence_time(result.flows[f].rate_series, expected[f],
                              tolerance=0.3, hold=10.0) for f in result.flow_ids)
    settled = [t for t in times if t is not None]
    return (statistics.mean(settled) if settled else math.inf), len(settled)


def _fig34_checks(report: ReproReport, scale: float, seed: int) -> None:
    fig = figure3_4(scale=scale, seed=seed)
    result = fig.result
    weight = {fid: result.flows[fid].weight for fid in result.flow_ids}
    for phase, share in ((1, 100.0 / 3.0), (2, 25.0), (3, 100.0 / 3.0)):
        expected = fig.expected_by_phase[phase - 1]
        rates = result.mean_rates(fig.phase_window(phase))
        mae = mean_absolute_error(rates, expected)
        mean_share = sum(expected.values()) / len(expected)
        worst = _worst_error(rates, expected)
        by_weight: Dict[float, List[float]] = {}
        for fid in expected:
            by_weight.setdefault(weight[fid], []).append(rates[fid])
        # Weight-3 flows above weight-2 above weight-1, by a clear margin.
        gap = min(
            min(by_weight[high]) / max(by_weight[low])
            for low, high in ((1.0, 2.0), (2.0, 3.0))
            if low in by_weight and high in by_weight
        )
        units = {round(v / weight[f], 2) for f, v in expected.items()}
        report.add(
            "FIG3",
            f"phase {phase} fair share is {share:.2f} pkt/s per unit weight",
            f"MAE {mae:.2f} pkt/s ({100 * mae / mean_share:.1f}% of mean share), "
            f"worst flow {100 * worst:.0f}% off, weight classes {gap:.2f}x apart",
            mae < 0.10 * mean_share,
            worst <= 0.25,
            gap > 1.2,
            units == {round(share, 2)},
        )
    # Figure 4: same weight -> same cumulative service.
    always_on = [f for f in result.flow_ids if f not in (1, 9, 10, 11, 16)]
    spreads = []
    by_group: Dict[float, List[int]] = {}
    for fid in always_on:
        by_group.setdefault(weight[fid], []).append(fid)
    for fids in by_group.values():
        served = [result.flows[f].delivered for f in fids]
        spreads.append(max(served) / min(served))
    report.add(
        "FIG4",
        "same-weight flows receive equal cumulative service",
        f"worst same-weight spread {max(spreads):.3f}x",
        max(spreads) <= 1.15,
    )
    loss_fraction = result.total_drops / max(1, result.total_delivered())
    report.add(
        "FIG4",
        "rate adaptation (nearly) without packet loss",
        f"{100 * loss_fraction:.3f}% of delivered traffic dropped",
        loss_fraction < 0.01,
    )


def _fig56_checks(report: ReproReport, duration: float, seed: int) -> None:
    cmp = figure5_6(duration=duration, seed=seed)
    window = (0.75 * duration, duration)
    settle: Dict[str, float] = {}
    settled: Dict[str, int] = {}
    for name, result in cmp.schemes():
        rates = result.mean_rates(window)
        mae = mean_absolute_error(rates, cmp.expected)
        jain = result.fairness_at(window)
        worst = _worst_error(rates, cmp.expected)
        report.add(
            "FIG5/6",
            f"{name} approximates the weighted-fair ideal in steady state",
            f"MAE {mae:.2f} pkt/s, weighted Jain {jain:.3f}, "
            f"worst flow {100 * worst:.0f}% off",
            mae < 5.0,
            jain > 0.97,
            worst <= 0.25,
        )
        settle[name], settled[name] = _settling(result, cmp.expected)
    flows = len(cmp.expected)
    report.add(
        "FIG5/6",
        "Corelite converges faster than CSFQ",
        f"{settle['corelite']:.1f} s vs {settle['csfq']:.1f} s "
        f"({settled['corelite']}/{flows} and {settled['csfq']}/{flows} flows settled)",
        settle["corelite"] < settle["csfq"],
        settled["corelite"] >= 8,
        settled["csfq"] >= 8,
    )
    corelite_dropped = cmp.corelite.total_drops / max(1, cmp.corelite.total_delivered())
    report.add(
        "FIG5/6",
        "CSFQ converges through losses, Corelite (almost) without",
        f"{cmp.csfq.total_losses()} vs {cmp.corelite.total_losses()} losses; "
        f"Corelite drops {100 * corelite_dropped:.2f}% of delivered",
        cmp.csfq.total_losses() > 5 * max(1, cmp.corelite.total_losses()),
        corelite_dropped < 0.005,
    )
    # The same run, read for delay: incipient-congestion control keeps
    # Corelite's standing queues near qthresh, CSFQ's near the buffer.
    mean_delay: Dict[str, float] = {}
    worst_p95: Dict[str, float] = {}
    for name, result in cmp.schemes():
        delays = [result.flows[f].delay for f in result.flow_ids]
        mean_delay[name] = statistics.mean(d["mean"] for d in delays)
        worst_p95[name] = max(d["p95"] for d in delays)
    report.add(
        "EXT-DELAY",
        "incipient-congestion control keeps queueing delay below CSFQ's",
        f"mean one-way {1e3 * mean_delay['corelite']:.1f} vs "
        f"{1e3 * mean_delay['csfq']:.1f} ms, worst p95 "
        f"{1e3 * worst_p95['corelite']:.1f} vs {1e3 * worst_p95['csfq']:.1f} ms "
        f"(propagation {1e3 * _PROPAGATION:.0f} ms)",
        min(mean_delay.values()) > _PROPAGATION,
        mean_delay["corelite"] < _PROPAGATION + 0.045,
        mean_delay["corelite"] < mean_delay["csfq"] - 0.015,
        worst_p95["corelite"] <= worst_p95["csfq"],
    )


def _fig78_checks(report: ReproReport, duration: float, seed: int) -> None:
    cmp = figure7_8(duration=duration, seed=seed)
    transient = (25.0, 45.0)
    steady = (0.75 * duration, duration)
    mae: Dict[str, float] = {}
    worst: Dict[str, float] = {}
    for name, result in cmp.schemes():
        expected = result.expected_rates(at_time=sum(transient) / 2)
        mae[name] = mean_absolute_error(result.mean_rates(transient), expected)
        worst[name] = _worst_error(result.mean_rates(steady), cmp.expected)
    losses = {name: result.total_losses() for name, result in cmp.schemes()}
    report.add(
        "FIG7/8",
        "Corelite tracks the moving fair share during staggered entry "
        "at least as well as CSFQ; both end weighted-fair, CSFQ through losses",
        f"transient MAE {mae['corelite']:.2f} vs {mae['csfq']:.2f} pkt/s; "
        f"steady worst flow {100 * worst['corelite']:.0f}% vs "
        f"{100 * worst['csfq']:.0f}% off; {losses['csfq']} vs "
        f"{losses['corelite']} losses",
        mae["corelite"] <= mae["csfq"] * 1.2,
        max(worst.values()) <= 0.30,
        losses["csfq"] > 5 * max(1, losses["corelite"]),
    )


def _fig910_checks(report: ReproReport, duration: float, seed: int) -> None:
    cmp = figure9_10(duration=duration, seed=seed)
    steady = (duration - 30.0, duration)
    churn = (62.0, 92.0)
    churn_mae: Dict[str, float] = {}
    for name, result in cmp.schemes():
        expected = result.expected_rates(at_time=duration - 1.0)
        rates = result.mean_rates(steady)
        mae = mean_absolute_error(rates, expected)
        worst = _worst_error(rates, cmp.expected)
        report.add(
            "FIG9/10",
            f"{name} returns to the weighted-fair allocation after churn",
            f"post-churn MAE {mae:.2f} pkt/s, worst flow {100 * worst:.0f}% off",
            mae < 6.0,
            worst <= 0.30,
        )
        # Tracking error against the instantaneous expectation mid-churn.
        at_churn = result.expected_rates(at_time=sum(churn) / 2)
        live = {f: r for f, r in result.mean_rates(churn).items() if f in at_churn}
        churn_mae[name] = mean_absolute_error(live, at_churn)
    report.add(
        "FIG9/10",
        "short-lived/restarting flows fare much worse under CSFQ (losses)",
        f"{cmp.csfq.total_losses()} vs {cmp.corelite.total_losses()} losses; "
        f"churn MAE {churn_mae['corelite']:.2f} vs {churn_mae['csfq']:.2f} pkt/s",
        cmp.csfq.total_losses() > 5 * max(1, cmp.corelite.total_losses()),
        churn_mae["corelite"] <= 1.2 * churn_mae["csfq"],
    )


def _insensitive(report: ReproReport, experiment: str, claim: str, points,
                 jain_floor: float, mae_ceiling: float = math.inf) -> None:
    """A sweep row: every point keeps weighted Jain and MAE in bounds."""
    jain = min(p.weighted_jain for p in points)
    mae = max(p.mae_vs_expected for p in points)
    values = f"{points[0].value:g}–{points[-1].value:g}"
    report.add(
        experiment,
        claim,
        f"{points[0].label} {values}: weighted Jain >= {jain:.3f}, MAE <= {mae:.2f} pkt/s",
        jain > jain_floor,
        mae < mae_ceiling,
    )


def _ablation_checks(report: ReproReport, duration: float, seed: int) -> None:
    points = sweep_fn_k(duration=duration, seed=seed)
    fn_k = {p.value: p for p in points}
    positive_jain = min(p.weighted_jain for p in points if p.value > 0)
    report.add(
        "ABL-K",
        "k = 0 degenerates into sustained tail drop; any k > 0 is fair (§3.1)",
        f"{fn_k[0.0].drops} drops vs {fn_k[0.02].drops} at k=0.02; "
        f"weighted Jain >= {positive_jain:.3f} at k > 0",
        fn_k[0.0].drops > 5 * max(1, fn_k[0.02].drops),
        positive_jain > 0.97,
    )
    feedback = {p.value: p for p in compare_feedback_schemes(duration=duration, seed=seed)}
    cache, selective = feedback["marker_cache"], feedback["selective"]
    report.add(
        "ABL-FEEDBACK",
        "the selective scheme tracks the ideal far tighter than the lossless cache",
        f"MAE {selective.mae_vs_expected:.2f} vs {cache.mae_vs_expected:.2f} pkt/s; "
        f"cache drops {cache.drops}; selective Jain {selective.weighted_jain:.3f}, "
        f"{selective.losses} losses",
        selective.mae_vs_expected < cache.mae_vs_expected / 2,
        cache.drops == 0,
        selective.weighted_jain > 0.97,
        selective.losses < 100,
    )
    aqm = {p.value: p for p in compare_queue_disciplines(duration=duration, seed=seed)}
    corelite, wfq = aqm["corelite"], aqm["fifo-wfq"]
    blind = [aqm[name] for name in ("fifo-droptail", "fifo-red", "fifo-fred", "fifo-decbit")]
    report.add(
        "ABL-AQM",
        "weight-blind disciplines cannot produce weighted fairness; "
        "the normalized-rate schemes do (§5)",
        f"droptail/RED/FRED/DECbit weighted Jain <= "
        f"{max(p.weighted_jain for p in blind):.3f}, MAE >= "
        f"{min(p.mae_vs_expected for p in blind):.2f} pkt/s; Corelite "
        f"{corelite.weighted_jain:.3f} / {corelite.mae_vs_expected:.2f}, "
        f"CSFQ {aqm['csfq'].weighted_jain:.3f}; DECbit drops {aqm['fifo-decbit'].drops}",
        all(p.weighted_jain < 0.9 for p in blind),
        all(p.mae_vs_expected > 3 * corelite.mae_vs_expected for p in blind),
        corelite.weighted_jain > 0.97,
        aqm["csfq"].weighted_jain > 0.97,
        aqm["fifo-decbit"].drops == 0,
    )
    report.add(
        "ABL-AQM",
        "Corelite matches the stateful WFQ reference with far fewer losses",
        f"jain {corelite.weighted_jain:.3f} vs {wfq.weighted_jain:.3f}; "
        f"losses {corelite.losses} vs {wfq.losses}",
        corelite.weighted_jain > 0.97,
        wfq.weighted_jain > 0.97,
        wfq.losses > 10 * max(1, corelite.losses),
    )
    _insensitive(report, "ABL-EPOCH", "not very sensitive to the core epoch (§4.4)",
                 sweep_core_epoch(duration=duration, seed=seed), 0.97, 5.0)
    _insensitive(report, "ABL-QTHRESH", "not very sensitive to the marking threshold (§4.4)",
                 sweep_qthresh(duration=duration, seed=seed), 0.97)
    _insensitive(report, "ABL-K1", "marker spacing K1 keeps weighted fairness (§4.4)",
                 sweep_k1(duration=duration, seed=seed), 0.95)
    estimators = compare_congestion_estimators(duration=duration, seed=seed)
    report.add(
        "ABL-ESTIMATOR",
        "the congestion estimator can be replaced with no impact (§3.1)",
        "; ".join(
            f"{p.value}: Jain {p.weighted_jain:.3f}, MAE {p.mae_vs_expected:.2f}, "
            f"{p.drops} drops"
            for p in estimators
        ),
        all(p.weighted_jain > 0.99 for p in estimators),
        all(p.mae_vs_expected < 5.0 for p in estimators),
        all(p.drops < 200 for p in estimators),
    )
    traffic = {p.value: p for p in compare_traffic_patterns(duration=120.0, seed=seed)}
    base, poisson, onoff = traffic["backlogged"], traffic["poisson"], traffic["onoff"]
    report.add(
        "ABL-TRAFFIC",
        "Fn works without Poisson arrivals and under bursty flows (§3.1, §2.2)",
        "drops / MAE: "
        + ", ".join(f"{p.value} {p.drops} / {p.mae_vs_expected:.2f}"
                    for p in (base, poisson, onoff)),
        base.drops == 0,
        poisson.drops <= base.drops + 5,
        poisson.mae_vs_expected < 2.0 * base.mae_vs_expected,
        onoff.drops < 1000,
        onoff.mae_vs_expected < 4.0 * base.mae_vs_expected,
    )


def _tcp_checks(report: ReproReport, seed: int, duration: float = 200.0) -> None:
    net = CloudBuilder(
        TopologySpec.chain(2, capacity_pps=500.0), "corelite", seed=seed
    ).add_flows([
        FlowSpec(flow_id=1, weight=1.0, transport="tcp"),
        FlowSpec(flow_id=2, weight=2.0, transport="tcp"),
        FlowSpec(flow_id=3, weight=1.0),
    ]).build()
    result = net.run(until=duration)
    window = (0.75 * duration, duration)
    rates = result.mean_rates(window)
    tput = result.mean_throughputs(window)
    expected = result.expected_rates(at_time=sum(window) / 2)
    realized = {fid: tput[fid] / rates[fid] for fid in net.tcp_hosts}
    timeouts = max(sender.timeouts for sender, _ in net.tcp_hosts.values())
    report.add(
        "EXT-TCP",
        "TCP hosts behind a Corelite edge get the weighted split (§4.4 future work)",
        f"allotments worst {100 * _worst_error(rates, expected):.0f}% off; TCP "
        f"realizes {min(realized.values()):.2f}–{max(realized.values()):.2f} of its "
        f"allotment, shaped flow {tput[3] / rates[3]:.2f}; max {timeouts} timeouts",
        _worst_error(rates, expected) <= 0.15,
        all(0.6 < r <= 1.1 for r in realized.values()),
        abs(tput[3] - rates[3]) <= 0.1 * rates[3],
        timeouts < 10,
        all(receiver.delivered > 0.5 * duration * expected[fid] / 1.5
            for fid, (_, receiver) in net.tcp_hosts.items()),
    )


def _state_checks(report: ReproReport, seed: int) -> None:
    flow_counts = (4, 8, 16, 32)
    peak = sweep_core_state(flow_counts, seed=seed)
    small, large = flow_counts[0], flow_counts[-1]
    report.add(
        "STATE",
        "a core-stateless core holds no per-flow state; WFQ and FRED grow with n (§1)",
        f"peak entries at {small} -> {large} flows: "
        + ", ".join(f"{name} {counts[0]} -> {counts[-1]}" for name, counts in peak.items()),
        peak["corelite-selective"] == [0] * len(flow_counts),
        peak["csfq"] == [0] * len(flow_counts),
        # Two enabled directions, each bounded by the cache size.
        peak["corelite-cache"][-1] <= 2 * MARKER_CACHE_SIZE,
        peak["wfq"][-1] >= 0.5 * large,
        peak["wfq"][-1] > 2 * peak["wfq"][0] - 2,
        peak["fred"][-1] > peak["fred"][0],
    )


def _startup_scenario(scheme: str, duration: float) -> ScenarioSpec:
    """The §4.2 workload (10 flows, weight ceil(i/2)) as a scenario dict."""
    return ScenarioSpec(
        name=f"repl-startup-{scheme}",
        scenario={
            "scheme": scheme,
            "duration": duration,
            "flows": [{"id": i, "weight": float(math.ceil(i / 2))} for i in range(1, 11)],
        },
    )


def _replication_checks(report: ReproReport, seed: int, duration: float = 60.0) -> None:
    seeds = range(seed, seed + 5)
    window = (0.75 * duration, duration)
    jain: Dict[str, List[float]] = {}
    losses: Dict[str, List[int]] = {}
    settle: Dict[str, List[float]] = {}
    runner = BatchRunner()
    for scheme in ("corelite", "csfq"):
        results = [item.result for item in
                   runner.run_scenario_seeds(_startup_scenario(scheme, duration), seeds)]
        jain[scheme] = [r.fairness_at(window) for r in results]
        losses[scheme] = [r.total_losses() for r in results]
        settle[scheme] = [_settling(r, r.expected_rates(at_time=duration / 2))[0]
                          for r in results]
    report.add(
        "REPL",
        f"the §4.2 headline results hold in each of seeds {seed}–{seed + 4}",
        f"weighted Jain >= {min(jain['corelite']):.3f} / {min(jain['csfq']):.3f}; "
        f"losses <= {max(losses['corelite'])} vs >= {min(losses['csfq'])}; "
        f"convergence <= {max(settle['corelite']):.1f} s vs >= {min(settle['csfq']):.1f} s",
        min(jain["corelite"]) > 0.99,
        min(jain["csfq"]) > 0.99,
        5 * max(losses["corelite"]) < min(losses["csfq"]),
        max(settle["corelite"]) < min(settle["csfq"]),
    )


def build_report(
    scale: float = 0.25,
    duration: float = 80.0,
    churn_duration: float = 160.0,
    seed: int = 0,
) -> ReproReport:
    """Rerun every experiment and verify the paper's claims.

    ``scale`` compresses the 800 s §4.1 scenario (below ~0.2 the scaled
    phases end before the linear climb settles and the FIG3/FIG4 checks
    legitimately fail); ``duration`` drives the 80 s comparisons and
    ablations.  ABL-TRAFFIC (120 s), EXT-TCP (200 s), STATE (30 s) and
    REPL (60 s) run at fixed horizons.  Defaults finish in under a minute.
    """
    if scale <= 0 or duration <= 40.0:
        raise ConfigurationError("scale must be > 0 and duration > 40 s")
    report = ReproReport()
    _fig34_checks(report, scale, seed)
    _fig56_checks(report, duration, seed)
    _fig78_checks(report, duration, seed)
    _fig910_checks(report, churn_duration, seed)
    _ablation_checks(report, duration, seed)
    _tcp_checks(report, seed)
    _state_checks(report, seed)
    _replication_checks(report, seed)
    return report
