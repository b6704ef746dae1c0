"""PAR — the batch executor: determinism, wall-clock speedup, cache replay.

Three claims about :class:`repro.experiments.parallel.BatchRunner`, measured:

* a 4-seed sweep produces byte-identical results serially and with 4
  workers (the per-task seed is derived from the task, never the worker);
* with enough cores, fanning out beats the serial path by ~the worker
  count (asserted at >=2x only when the host actually has >=4 CPUs — on a
  smaller box the numbers are still recorded in the report);
* a second run of the same sweep is served from the on-disk cache in a
  small fraction of the cold time.

On a 2-CPU host the 1.2x bound is not met, and pool overhead is the cause,
not the simulation: the sweep is four ~0.15 s tasks (0.4-0.7 s serial),
while a spawned worker spends ~0.25 s of CPU starting — the interpreter
(0.06 s) and ``import repro.experiments`` with the scenario builder
(0.17 s) — before its first task, and a cold pool's first task in each
worker ran 0.37 s of wall time for 0.17 s of CPU.  An empty 2-worker spawn
pool takes 0.08-0.3 s.  Measured with ``workers=4`` on 2 CPUs, the
parallel pass took 0.92-1.70 s (0.35-0.59x) while ``pool_map`` started one
process per task; with the pool capped at one process per CPU it takes
0.63-0.79 s (0.58-0.88x), and this bench reads 0.90-1.10x (0.66-0.78x
before the cap).  The simulator has sped up several-fold since the bound
was written (docs/PERF_LOG.md); spawn start-up has not.

A first pool in a process sometimes runs slower than later ones (1.17 s
and 0.80 s against 0.4-0.6 s).  Its workers then use the CPU time later
pools' workers use but take twice it in wall time: they wait for a CPU.
Compiling ``repro`` is not the cause.  A tree with no bytecode costs each
worker of every pool ~0.1 s more CPU to import (0.11-0.15 s against
0.04-0.06 s from ``.pyc`` files), the first pool and later ones alike, and
where bytecode writing is on the serial pass writes what the workers load.
"""

import json
import os
import shutil
import tempfile
import time

import pytest

from benchmarks.conftest import once
from repro.experiments.parallel import (
    BatchRunner,
    ScenarioSpec,
    batch_metrics,
    batch_summary_table,
    expand_tasks,
    result_to_payload,
)

NUM_SEEDS = 4
DURATION = 30.0
NUM_FLOWS = 10


def _sweep_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="par-startup",
        scenario={
            "scheme": "corelite",
            "duration": DURATION,
            "topology": {"kind": "chain", "num_cores": 2},
            "flows": [
                {"id": i, "weight": float((i + 1) // 2)}
                for i in range(1, NUM_FLOWS + 1)
            ],
        },
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.mark.benchmark(group="parallel")
def test_batch_runner_speedup_and_cache(benchmark, write_report):
    spec = _sweep_spec()
    tasks = expand_tasks(spec, NUM_SEEDS, base_seed=0)
    cache_dir = tempfile.mkdtemp(prefix="repro-batch-bench-")

    def measure():
        try:
            serial, t_serial = _timed(
                lambda: BatchRunner(workers=1, cache_dir=None).run(tasks)
            )
            runner = BatchRunner(workers=NUM_SEEDS, cache_dir=cache_dir)
            parallel, t_parallel = _timed(lambda: runner.run(tasks))
            warm, t_warm = _timed(lambda: runner.run(tasks))
            return {
                "serial": serial,
                "parallel": parallel,
                "warm": warm,
                "t_serial": t_serial,
                "t_parallel": t_parallel,
                "t_warm": t_warm,
            }
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    out = once(benchmark, measure)

    # Determinism: serial and 4-worker runs agree byte for byte.
    for a, b in zip(out["serial"], out["parallel"]):
        assert json.dumps(result_to_payload(a.result), sort_keys=True) == \
            json.dumps(result_to_payload(b.result), sort_keys=True)

    # Cache replay: every task a hit, in a small fraction of the cold time.
    assert all(item.cached for item in out["warm"])
    assert not any(item.cached for item in out["parallel"])
    assert out["t_warm"] < 0.10 * out["t_serial"]

    speedup = out["t_serial"] / out["t_parallel"]
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert speedup >= 2.0, f"4-worker speedup only {speedup:.2f}x on {cpus} CPUs"
    elif cpus >= 2:
        assert speedup >= 1.2, f"speedup only {speedup:.2f}x on {cpus} CPUs"

    summaries = batch_metrics(out["parallel"])
    write_report(
        "parallel_batch",
        f"PAR — {NUM_SEEDS}-seed sweep of {spec.name!r} ({DURATION:.0f} s, "
        f"{NUM_FLOWS} flows) on {cpus} CPU(s)\n"
        f"serial    : {out['t_serial']:.2f} s\n"
        f"4 workers : {out['t_parallel']:.2f} s  ({speedup:.2f}x)\n"
        f"cache warm: {out['t_warm']:.3f} s  "
        f"({out['t_warm'] / out['t_serial']:.1%} of cold)\n\n"
        + batch_summary_table(summaries),
    )
