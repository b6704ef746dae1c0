"""Parallel multi-seed experiment execution with deterministic replay.

The figure benches and replication sweeps rerun the same scenario under
many seeds, serially.  This module fans ``scenario x seed`` tasks out over
a ``multiprocessing`` pool while keeping the three properties the test
suite pins down:

* **Determinism** — a task's seed comes from the task definition alone
  (either given explicitly or derived via :func:`repro.sim.rng.derive_seed`),
  never from worker identity or scheduling, and results are returned in
  task order.  A batch therefore produces byte-identical results whether
  it runs serially, in 2 workers, or in 16.
* **Spawn safety** — live simulator objects (``Network``, heap callbacks)
  are not picklable, so what crosses the process boundary is a
  :class:`ScenarioSpec` (a JSON-compatible scenario dict, the same format
  ``corelite run`` consumes) on the way in and a plain-data rendering of
  the :class:`RunResult` on the way out; the worker rebuilds the cloud
  from the spec via :func:`repro.experiments.scenario_dsl.run_scenario`.
* **Replay** — every finished task is written to an on-disk cache keyed
  by a content hash of (scenario, seed, cache format, code version), so
  rerunning an unchanged sweep is a handful of JSON reads.  Editing the
  scenario, the seed list, or upgrading the package changes the key and
  invalidates naturally; deleting the cache directory invalidates
  manually.

Aggregation helpers at the bottom summarize a batch (mean / 95% CI of the
weighted Jain index, per-metric spread across seeds) as the tables
``corelite batch`` prints.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._version import __version__
from repro.errors import ConfigurationError
from repro.experiments.replication import MetricSummary, summarize_metrics
from repro.experiments.runner import FlowRecord, RunResult
from repro.fairness.metrics import (
    reconvergence_time,
    transient_dip,
    weighted_jain_index,
)
from repro.sim.monitor import Series
from repro.sim.rng import derive_seed

__all__ = [
    "ScenarioSpec",
    "BatchTask",
    "BatchResult",
    "BatchRunner",
    "expand_tasks",
    "pool_map",
    "result_to_payload",
    "result_from_payload",
    "batch_metrics",
    "scalar_metrics",
    "mean_ci",
    "batch_summary_table",
]

#: Bump when the cached payload's layout or meaning changes (5: no
#: ``micro_delivered`` per flow, no ``reroutes`` in ``dynamics``); part of
#: every cache key.
CACHE_FORMAT = 5


def _canonical_json(value: object, where: str) -> str:
    """Serialize deterministically (sorted keys, no NaN/inf) for hashing."""
    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{where}: not JSON-canonicalizable ({exc}); scenario specs must "
            "be plain JSON data (use null for open-ended schedule stops)"
        ) from None


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable, hashable experiment definition.

    ``scenario`` is the declarative dict of
    :mod:`repro.experiments.scenario_dsl` *without* a ``seed`` key — the
    seed belongs to the :class:`BatchTask`, so one spec fans out across
    seeds without copying.
    """

    name: str
    scenario: Mapping

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("ScenarioSpec needs a non-empty name")
        if not isinstance(self.scenario, Mapping):
            raise ConfigurationError(
                f"scenario {self.name!r}: scenario must be a mapping, "
                f"got {type(self.scenario).__name__}"
            )
        if "seed" in self.scenario:
            raise ConfigurationError(
                f"scenario {self.name!r}: put the seed on the BatchTask, "
                "not inside the scenario dict (one spec serves every seed)"
            )
        # Freeze the content: a shared mutable dict mutated between
        # submission and execution would silently split key and payload.
        object.__setattr__(self, "scenario", json.loads(self.canonical()))

    def canonical(self) -> str:
        """The spec's canonical JSON (what the cache key hashes)."""
        return _canonical_json(dict(self.scenario), f"scenario {self.name!r}")

    @classmethod
    def from_file(cls, path: str, name: Optional[str] = None) -> "ScenarioSpec":
        """Load a ``corelite run``-style scenario file as a spec."""
        from repro.experiments.scenario_dsl import load_scenario_file

        scenario = load_scenario_file(path)
        scenario.pop("seed", None)  # per-task seeds replace a baked-in one
        base = os.path.splitext(os.path.basename(path))[0]
        return cls(name=name or base, scenario=scenario)


@dataclass(frozen=True)
class BatchTask:
    """One unit of work: a scenario under one seed."""

    spec: ScenarioSpec
    seed: int

    def cache_key(self) -> str:
        """Content hash of everything that determines the result."""
        material = _canonical_json(
            {
                "format": CACHE_FORMAT,
                "version": __version__,
                "scenario": dict(self.spec.scenario),
                "seed": self.seed,
            },
            f"task {self.spec.name!r} seed {self.seed}",
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


def expand_tasks(
    spec: ScenarioSpec, num_seeds: int, base_seed: int = 0
) -> List[BatchTask]:
    """``num_seeds`` tasks with seeds derived from ``(base_seed, name, i)``.

    The derivation goes through :func:`repro.sim.rng.derive_seed`, the
    same rule the in-simulation streams use, so replicate *i* of a named
    sweep has one seed forever — independent of worker count, batch
    composition, or which other sweeps run alongside.
    """
    if num_seeds < 1:
        raise ConfigurationError(f"num_seeds must be >= 1, got {num_seeds}")
    return [
        BatchTask(spec, derive_seed(base_seed, f"batch:{spec.name}:{i}"))
        for i in range(num_seeds)
    ]


@dataclass
class BatchResult:
    """One task's outcome: the rebuilt result plus provenance."""

    task: BatchTask
    result: RunResult
    cached: bool
    key: str
    elapsed: float


# ---------------------------------------------------------------------------
# RunResult <-> plain data
# ---------------------------------------------------------------------------


def _series_rows(series: Series) -> List[List[float]]:
    return [[t, v] for t, v in series]


def _series_from_rows(name: str, rows: Sequence[Sequence[float]]) -> Series:
    series = Series(name)
    for t, v in rows:
        series.append(float(t), float(v))
    return series


def result_to_payload(result: RunResult) -> Dict:
    """Render a :class:`RunResult` as JSON-compatible plain data.

    Floats survive exactly (``json`` emits ``repr`` which round-trips),
    so ``result_from_payload(result_to_payload(r))`` reproduces every
    series bit-for-bit — the determinism tests rely on this.
    """
    return {
        "scheme": result.scheme,
        "duration": result.duration,
        "seed": result.seed,
        "total_drops": result.total_drops,
        "policy_drops": result.policy_drops,
        "capacities": dict(result.capacities),
        "flows": {
            str(fid): {
                "flow_id": record.flow_id,
                "weight": record.weight,
                "schedule": [
                    [start, None if math.isinf(stop) else stop]
                    for start, stop in record.schedule
                ],
                "path_links": list(record.path_links),
                "delivered": record.delivered,
                "losses": record.losses,
                "demand": None if math.isinf(record.demand) else record.demand,
                "delay": dict(record.delay),
                "rate_series": _series_rows(record.rate_series),
                "throughput_series": _series_rows(record.throughput_series),
                "cumulative_series": _series_rows(record.cumulative_series),
            }
            for fid, record in result.flows.items()
        },
        "queue_series": {
            name: _series_rows(series)
            for name, series in result.queue_series.items()
        },
        "dynamics": None
        if result.dynamics is None
        else {
            "events": list(result.dynamics["events"]),
            "failure_drops": result.dynamics["failure_drops"],
            "control_unroutable": result.dynamics["control_unroutable"],
            "post_reference": {
                str(fid): rate
                for fid, rate in result.dynamics["post_reference"].items()
            },
        },
    }


def result_from_payload(payload: Mapping) -> RunResult:
    """Rebuild the :class:`RunResult` a worker (or the cache) rendered."""
    flows: Dict[int, FlowRecord] = {}
    for fid_str, raw in payload["flows"].items():
        fid = int(fid_str)
        flows[fid] = FlowRecord(
            flow_id=raw["flow_id"],
            weight=raw["weight"],
            schedule=tuple(
                (start, math.inf if stop is None else stop)
                for start, stop in raw["schedule"]
            ),
            path_links=tuple(raw["path_links"]),
            rate_series=_series_from_rows(f"rate:{fid}", raw["rate_series"]),
            throughput_series=_series_from_rows(
                f"tput:{fid}", raw["throughput_series"]
            ),
            cumulative_series=_series_from_rows(
                f"cum:{fid}", raw["cumulative_series"]
            ),
            delivered=raw["delivered"],
            losses=raw["losses"],
            demand=math.inf if raw["demand"] is None else raw["demand"],
            delay=dict(raw["delay"]),
        )
    queue_series = {
        name: _series_from_rows(f"queue:{name}", rows)
        for name, rows in payload.get("queue_series", {}).items()
    }
    dynamics = payload.get("dynamics")
    if dynamics is not None:
        dynamics = {
            "events": list(dynamics["events"]),
            "failure_drops": dynamics["failure_drops"],
            "control_unroutable": dynamics["control_unroutable"],
            "post_reference": {
                int(fid): rate
                for fid, rate in dynamics["post_reference"].items()
            },
        }
    return RunResult(
        scheme=payload["scheme"],
        duration=payload["duration"],
        capacities=payload["capacities"],
        flows=flows,
        total_drops=payload["total_drops"],
        seed=payload["seed"],
        queue_series=queue_series or None,
        dynamics=dynamics,
        policy_drops=payload["policy_drops"],
    )


# ---------------------------------------------------------------------------
# The worker entrypoint (must be a module-level function: spawn pickles it
# by qualified name, and the child re-imports this module to find it).
# ---------------------------------------------------------------------------


def _execute_task(payload: Mapping) -> Dict:
    """Build the network from the scenario dict, run it, render the result."""
    from repro.experiments.scenario_dsl import run_scenario

    scenario = dict(payload["scenario"])
    scenario["seed"] = payload["seed"]
    return result_to_payload(run_scenario(scenario))


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class BatchRunner:
    """Fan ``BatchTask``s over a process pool, with an on-disk result cache.

    ``workers=1`` runs inline (no pool, no subprocess) through the same
    worker function, so the serial and parallel paths cannot diverge.
    ``cache_dir=None`` disables caching.  Results always come back in
    task order.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        start_method: str = "spawn",
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"unknown start method {start_method!r}; this platform has "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self.workers = workers
        self.cache_dir = cache_dir
        self.start_method = start_method

    # -- cache ----------------------------------------------------------

    def _cache_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_load(self, key: str) -> Optional[Dict]:
        path = self._cache_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("format") != CACHE_FORMAT:
                return None
            return entry["result"]
        except (OSError, ValueError, KeyError):
            # A truncated / corrupt entry is a miss; the rerun rewrites it.
            return None

    def _cache_store(self, key: str, task: BatchTask, payload: Dict) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "version": __version__,
            "scenario_name": task.spec.name,
            "seed": task.seed,
            "result": payload,
        }
        # Write-to-temp + rename: a crashed writer never leaves a partial
        # entry that a later run would half-read.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- execution -------------------------------------------------------

    def run(self, tasks: Sequence[BatchTask]) -> List[BatchResult]:
        """Execute every task (cache first, then pool), in task order."""
        tasks = list(tasks)
        if not tasks:
            raise ConfigurationError("batch needs at least one task")
        keys = [task.cache_key() for task in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted(
                {k for k in keys if keys.count(k) > 1}
            )
            raise ConfigurationError(
                f"duplicate (scenario, seed) tasks in batch: {dupes[0][:12]}..."
            )

        payloads: List[Optional[Dict]] = []
        cached: List[bool] = []
        for task, key in zip(tasks, keys):
            hit = self._cache_load(key)
            payloads.append(hit)
            cached.append(hit is not None)

        pending = [i for i, p in enumerate(payloads) if p is None]
        inputs = [
            {"scenario": dict(tasks[i].spec.scenario), "seed": tasks[i].seed}
            for i in pending
        ]
        started = time.perf_counter()
        if inputs:
            outputs = pool_map(_execute_task, inputs, self.workers, self.start_method)
            for i, payload in zip(pending, outputs):
                self._cache_store(keys[i], tasks[i], payload)
                payloads[i] = payload
        elapsed = time.perf_counter() - started

        per_task = elapsed / len(pending) if pending else 0.0
        return [
            BatchResult(
                task=task,
                result=result_from_payload(payload),
                cached=was_cached,
                key=key,
                elapsed=0.0 if was_cached else per_task,
            )
            for task, key, payload, was_cached in zip(tasks, keys, payloads, cached)
        ]

    def run_scenario_seeds(
        self, spec: ScenarioSpec, seeds: Sequence[int]
    ) -> List[BatchResult]:
        """Convenience: one spec across explicit seeds."""
        return self.run([BatchTask(spec, int(seed)) for seed in seeds])


def pool_map(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    start_method: str = "spawn",
) -> List:
    """Order-preserving parallel map for sweeps that are not scenario-shaped.

    ``fn`` must be a module-level function and each item picklable (spawn
    semantics).  ``workers<=1`` runs inline — same code path the batch
    runner uses, same determinism argument: results depend only on the
    items, never on scheduling.  The pool holds at most one process per
    CPU: a spawned worker spends ~0.25 s of CPU starting (the interpreter
    and ``import repro.experiments``) before its first item, and one beyond
    the CPU count adds that and no parallelism.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context(start_method)
    with ctx.Pool(processes=min(workers, len(items), os.cpu_count() or 1)) as pool:
        return pool.map(fn, items, chunksize=1)


# ---------------------------------------------------------------------------
# Aggregation across seeds
# ---------------------------------------------------------------------------

#: Two-sided 95% Student-t critical values by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 20: 2.086, 25: 2.060, 30: 2.042,
}


def mean_ci(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95% confidence half-width (Student t) of a sample.

    With one value the half-width is 0 (no spread information).
    """
    values = [float(v) for v in values]
    if not values:
        raise ConfigurationError("mean_ci needs at least one value")
    mean = statistics.fmean(values)
    n = len(values)
    if n == 1:
        return mean, 0.0
    # The largest tabulated df <= df: a smaller df has the larger t, so an
    # untabulated df (every df > 30 too) errs wide, never narrow.
    t = _T95[max(k for k in _T95 if k <= n - 1)]
    stderr = statistics.stdev(values) / math.sqrt(n)
    return mean, t * stderr


def scalar_metrics(result: RunResult, window: Tuple[float, float]) -> Dict[str, float]:
    """The default per-run scalars: weighted Jain, delivered, losses, drops.

    Runs with topology dynamics additionally report the re-convergence
    family: ``reconvergence_time`` (seconds from the last event until the
    Jain index of throughput-over-reference stays >= 0.9; -1.0 when the
    run never re-converged) and ``transient_dip`` (worst post-event
    aggregate throughput relative to the pre-event baseline).
    """
    rates = result.mean_rates(window)
    ids = sorted(rates)
    weights = result.weights()
    metrics = {
        "weighted_jain": weighted_jain_index(
            [rates[f] for f in ids], [weights[f] for f in ids]
        )
        if ids
        else 1.0,
        "delivered": float(result.total_delivered()),
        "losses": float(result.total_losses()),
        "drops": float(result.total_drops),
    }
    dynamics = getattr(result, "dynamics", None)
    if dynamics and dynamics.get("events"):
        event_time = max(event["time"] for event in dynamics["events"])
        throughput = {
            fid: record.throughput_series for fid, record in result.flows.items()
        }
        reference = dynamics["post_reference"]
        settled = reconvergence_time(throughput, reference, event_time)
        metrics["reconvergence_time"] = -1.0 if settled is None else settled
        metrics["transient_dip"] = transient_dip(throughput, event_time)
    return metrics


def batch_metrics(
    results: Sequence[BatchResult],
    window: Optional[Tuple[float, float]] = None,
    metric_fn: Optional[Callable[[RunResult], Mapping[str, float]]] = None,
) -> Dict[str, MetricSummary]:
    """Per-metric distribution across a batch's seeds.

    The default metric set is the replication bench's: weighted Jain index
    over ``window`` (last quarter of the run when omitted), total
    delivered/losses/drops.  Pass ``metric_fn`` to extract your own.
    """
    if not results:
        raise ConfigurationError("batch_metrics needs at least one result")
    per_metric: Dict[str, List[float]] = {}
    for item in results:
        result = item.result
        if metric_fn is not None:
            metrics = dict(metric_fn(result))
        else:
            win = window or (0.75 * result.duration, result.duration)
            metrics = scalar_metrics(result, win)
        for name, value in metrics.items():
            per_metric.setdefault(name, []).append(float(value))
    lengths = {len(v) for v in per_metric.values()}
    if len(lengths) != 1:
        raise ConfigurationError(
            "metric_fn returned different metric sets across seeds: "
            f"{sorted((k, len(v)) for k, v in per_metric.items())}"
        )
    return summarize_metrics(per_metric)


def batch_summary_table(summaries: Mapping[str, MetricSummary]) -> str:
    """Render cross-seed metric summaries as the usual aligned table."""
    from repro.experiments.report import format_table

    rows = []
    for name in sorted(summaries):
        s = summaries[name]
        mean, half = mean_ci(s.values)
        rows.append([name, len(s.values), mean, half, s.stdev, s.lo, s.hi])
    return format_table(
        ["metric", "n", "mean", "ci95", "stdev", "lo", "hi"],
        rows,
        float_format="{:.3f}",
    )
