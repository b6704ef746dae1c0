"""One measured run of one workload, in this process (the ``--child`` side).

Host quantities (``*_s``, ``kernel_ms``, ``peak_rss_mb``) are noisy; every
quantity in the ``sim`` block is simulated, repeats exactly for a given
seed, and is compared for equality by the driver.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
from time import perf_counter
from typing import Any, Dict, List, Optional

from . import hostclock, tracing
from .workloads import Workload

__all__ = ["run_once", "simulated_metrics", "layer_metrics", "fingerprint", "weighted_jain"]

#: The run's sampling interval (simulated seconds).
SAMPLE_SIM_S = 1.0
#: Simulated seconds between host-clock ticks on a serial cloud (a tick only
#: runs the calibration kernel when enough host time has passed).
TICK_SIM_S = 0.125
#: ``converge_sim_s`` threshold on the weighted Jain index of allotted rates.
CONVERGED_JAIN = 0.95


def weighted_jain(rates: List[float], weights: List[float]) -> float:
    """Jain's index of the normalized rates ``b(f) / w(f)`` (paper §2.1)."""
    normalized = [rate / weight for rate, weight in zip(rates, weights)]
    square_sum = sum(x * x for x in normalized)
    if square_sum == 0.0:
        return 0.0
    return sum(normalized) ** 2 / (len(normalized) * square_sum)


def fingerprint(result) -> str:
    """SHA-256 over the per-flow delivered counts, in flow-id order."""
    delivered = [[fid, result.flows[fid].delivered] for fid in sorted(result.flows)]
    return hashlib.sha256(json.dumps(delivered).encode()).hexdigest()


def simulated_metrics(result, reference: Dict[int, float], horizon: float) -> Dict[str, Any]:
    """Accuracy of the simulated outcome against the weighted max-min reference.

    ``wjain`` and ``rate_err_mean`` use each flow's mean delivered
    throughput over the second half of the horizon.  ``loss_frac`` counts
    what a flow's receiver sees — egress-detected sequence gaps, which
    cover queue drops and CSFQ's probabilistic core drops alike — over
    delivered + lost.  ``converge_sim_s`` is the first sample time from
    which the weighted Jain index of the *allotted* rates stays at or
    above :data:`CONVERGED_JAIN` to the end (the horizon if it never does).
    """
    fids = sorted(result.flows)
    weights = [result.flows[fid].weight for fid in fids]
    half = horizon / 2.0
    throughput = []
    for fid in fids:
        series = result.flows[fid].throughput_series
        window = [v for t, v in zip(series.times, series.values) if t > half]
        throughput.append(sum(window) / len(window) if window else 0.0)
    errors = [
        abs(measured - reference[fid]) / reference[fid]
        for fid, measured in zip(fids, throughput)
    ]
    times = list(result.flows[fids[0]].rate_series.times)
    converged_at = horizon
    for index in range(len(times) - 1, -1, -1):
        rates = [result.flows[fid].rate_series.values[index] for fid in fids]
        if weighted_jain(rates, weights) < CONVERGED_JAIN:
            break
        converged_at = times[index]
    delivered = sum(result.flows[fid].delivered for fid in fids)
    losses = sum(result.flows[fid].losses for fid in fids)
    return {
        "delivered": delivered,
        "losses": losses,
        "link_drops": result.total_drops,
        "wjain": weighted_jain(throughput, weights),
        "rate_err_mean": sum(errors) / len(errors),
        "loss_frac": losses / (delivered + losses) if delivered + losses else 0.0,
        "converge_sim_s": converged_at,
        "fingerprint": fingerprint(result),
    }


def layer_metrics(
    setup: tracing.Aggregates,
    run: tracing.Aggregates,
    post: tracing.Aggregates,
    sim: Dict[str, Any],
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by their BENCHMARK.json names.

    ``setup`` / ``run`` / ``post`` are the span aggregates of the three
    phases (build + finalize or spawn; ``Cloud.run`` or
    ``ParallelCloud.execute``; the reference allocation).  Every ``self_s``
    and ``share`` is taken over the run phase only, so the layers' self
    times add up to the traced run's wall time.
    """
    self_time, total, count = tracing.self_time, tracing.total, tracing.count
    root = total(run, "experiments.builder", "run") or total(
        run, "experiments.pdes", "execute"
    )

    def share(seconds: float) -> float:
        return seconds / root if root else 0.0

    out: Dict[str, float] = {"trace.run_s": root}
    for layer in ("sim.engine", "sim.link", "core.shaping", "core.edge", "core.router"):
        out[f"{layer}.self_s"] = self_time(run, layer)
        out[f"{layer}.share"] = share(out[f"{layer}.self_s"])
    for layer in ("sim.control", "csfq.edge", "csfq.router"):
        out[f"{layer}.self_s"] = self_time(run, layer)
    out["trace.self_sum_s"] = sum(v[2] for v in run.values())
    delivered = sim["delivered"]
    out["sim.engine.events"] = sim["events"]
    out["sim.engine.events_per_pkt"] = sim["events"] / delivered if delivered else 0.0
    out["sim.link.send_calls"] = count(run, "sim.link", "send")
    out["sim.link.drops"] = sim["link_drops"]
    out["core.shaping.timer_calls"] = tracing.dispatched(run, "core.shaping")
    out["core.edge.timer_calls"] = tracing.dispatched(run, "core.edge")
    out["core.edge.receive_calls"] = count(run, "core.edge", "receive")
    out["core.edge.feedback_calls"] = count(run, "core.edge", "receive_feedback")
    out["core.router.timer_calls"] = tracing.dispatched(run, "core.router")
    out["core.router.receive_calls"] = count(run, "core.router", "receive")
    out["csfq.router.receive_calls"] = count(run, "csfq.router", "receive")
    out["sim.control.sends"] = count(run, "sim.control", "send")
    out["sim.control.unroutable"] = sim["control_unroutable"]
    out["experiments.builder.build_s"] = total(setup, "experiments.builder", "build")
    out["experiments.builder.finalize_s"] = total(setup, "experiments.builder", "finalize")
    # The per-second sampler is a closure defined in the builder module.
    out["experiments.builder.sample_s"] = self_time(run, "experiments.builder", "sample")
    # Cloud.run outside the event loop: scheduling the flows, allocating
    # the records, collecting the result.
    out["experiments.builder.collect_s"] = self_time(run, "experiments.builder", "run")
    out["fairness.reference_s"] = total(post, "fairness", "reference_rates")
    out["experiments.pdes.spawn_s"] = total(setup, "experiments.pdes", "start")
    out["experiments.pdes.windows_wait_s"] = total(
        run, "experiments.pdes", "windows"
    ) + total(run, "experiments.pdes", "finish")
    out["experiments.pdes.coord_s"] = self_time(run, "experiments.pdes", "execute")
    for name in ("barriers", "rounds", "skips"):
        out[f"experiments.pdes.{name}"] = sim.get(name, 0)
    return out


def _setup(build, finalize, timings: Dict[str, List[float]], samples: int):
    """One cloud, set up in two timed chunks, ``samples`` times over (every
    cloud but the last is dropped and collected before the next is built)."""
    for remaining in range(samples - 1, -1, -1):
        kernel = [hostclock.kernel_seconds() for _ in range(3)]
        t0 = perf_counter()
        built = build()
        t1 = perf_counter()
        ready = finalize(built)
        t2 = perf_counter()
        kernel += [hostclock.kernel_seconds() for _ in range(3)]
        timings["build_s"].append(hostclock.calibrated(t1 - t0, kernel))
        timings["finalize_s"].append(hostclock.calibrated(t2 - t1, kernel))
        if not remaining:
            return built, ready
        del built, ready
        gc.collect()


def run_once(
    workload: Workload,
    seed: int,
    horizon: float,
    traced: bool = False,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Build, run and score one cloud; returns the child's JSON payload.

    Host times are reported in *calibrated* seconds (see
    :mod:`.hostclock`): a fixed pure-Python kernel is timed every ~25 ms of
    the run — from a do-nothing periodic callback on a serial cloud's own
    simulator, between barrier rounds on a partitioned one — and wall time
    is scaled by how fast the host ran that kernel.
    """
    tracer = tracing.Tracer() if traced else None
    timings: Dict[str, List[float]] = {"build_s": [], "finalize_s": []}
    clock = hostclock.HostClock()
    extra: Dict[str, int] = {"events": 0, "control_unroutable": 0}
    builder = workload.make_builder(seed)
    snapshots: List[tracing.Aggregates] = []

    def snapshot() -> None:
        if tracer is not None:
            snapshots.append(tracer.snapshot())

    with tracing.tracing(tracer) if tracer else contextlib.nullcontext():
        if workload.partitions > 1:
            # For a partitioned cloud the second setup chunk is worker spawn.
            parallel, session = _setup(
                builder.build_parallel, lambda p: p.start(), timings, samples=1
            )
            try:
                windows = session.windows

                def ticking_windows(requests):
                    results = windows(requests)
                    clock.tick()
                    return results

                session.windows = ticking_windows
                snapshot()
                clock.start()
                result = parallel.execute(session, horizon, sample_interval=SAMPLE_SIM_S)
                run_wall = clock.stop()
                snapshot()
            finally:
                session.close()
            reference = result.expected_rates(at_time=horizon / 2.0)
            extra.update(
                barriers=parallel.barriers, rounds=parallel.rounds, skips=parallel.skips
            )
        else:
            cloud, _ = _setup(
                lambda: builder.build(finalize=False),
                lambda c: c.finalize(),
                timings,
                samples=1 if traced else workload.setup_samples,
            )
            ticker = cloud.sim.every(TICK_SIM_S, clock.tick)
            snapshot()
            clock.start()
            result = cloud.run(until=horizon, sample_interval=SAMPLE_SIM_S)
            run_wall = clock.stop()
            snapshot()
            ticker.stop()
            reference = cloud.reference_rates()
            # The clock ticks are the benchmark's own events, not the cloud's.
            extra["events"] = cloud.sim.events_executed - clock.ticks
            extra["control_unroutable"] = cloud.control.unroutable

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    payload: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "horizon": horizon,
        "traced": traced,
        "build_s": timings["build_s"],
        "finalize_s": timings["finalize_s"],
        "run_s": clock.calibrated_run(),
        "run_wall_s": run_wall,
        "kernel_ms": clock.kernel_mean() * 1e3,
        "peak_rss_mb": usage / 1024.0,
        "sim": {**simulated_metrics(result, reference, horizon), **extra},
    }
    if tracer is not None:
        before_run, after_run = snapshots
        payload["layers"] = layer_metrics(
            setup=before_run,
            run=tracing.between(after_run, before_run),
            post=tracing.between(tracer.agg, after_run),
            sim=payload["sim"],
        )
        if trace_path:
            with open(trace_path, "w") as handle:
                json.dump(
                    {"workload": workload.name, "seed": seed, **tracer.to_json()}, handle
                )
    return payload
