"""Tests for the parallel batch executor (repro.experiments.parallel).

The heart of the file is the determinism regression: the same scenario
under the same seed must produce bit-identical ``RunResult`` series
through the plain serial path, a 1-worker batch, and a 4-worker batch.
This pins the seed-derivation contract (task seeds come from the task,
never the worker) forever.
"""

import json
import math
import os
import statistics

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments.figures import figure5_6
from repro.experiments.parallel import (
    BatchRunner,
    BatchTask,
    ScenarioSpec,
    batch_metrics,
    batch_summary_table,
    expand_tasks,
    mean_ci,
    pool_map,
    result_from_payload,
    result_to_payload,
    scalar_metrics,
)
from repro.experiments.scenario_dsl import run_scenario
from repro.sim.rng import derive_seed

TINY = {
    "scheme": "corelite",
    "duration": 6.0,
    "topology": {"kind": "chain", "num_cores": 2},
    "flows": [
        {"id": 1, "weight": 1},
        {"id": 2, "weight": 2},
        {"id": 3, "weight": 3},
    ],
}


def _spec(name="tiny", scenario=None):
    return ScenarioSpec(name=name, scenario=scenario or TINY)


def _payload_text(result) -> str:
    return json.dumps(result_to_payload(result), sort_keys=True)


# ---------------------------------------------------------------------------
# Determinism regression (the seed-derivation contract)
# ---------------------------------------------------------------------------


def test_serial_and_parallel_batches_are_bit_identical():
    """Same (scenario, seed): direct run == 1-worker batch == 4-worker batch."""
    seeds = [0, 1, 2, 3]
    tasks = [BatchTask(_spec(), seed) for seed in seeds]

    reference = []
    for seed in seeds:
        scenario = dict(TINY)
        scenario["seed"] = seed
        reference.append(run_scenario(scenario))

    one_worker = BatchRunner(workers=1).run(tasks)
    four_workers = BatchRunner(workers=4).run(tasks)

    for ref, serial, parallel in zip(reference, one_worker, four_workers):
        ref_text = _payload_text(ref)
        assert ref_text == _payload_text(serial.result)
        assert ref_text == _payload_text(parallel.result)
        # and the concrete series, not just the rendering:
        for fid in ref.flow_ids:
            assert list(ref.record(fid).rate_series) == \
                list(parallel.result.record(fid).rate_series)
            assert list(ref.record(fid).throughput_series) == \
                list(parallel.result.record(fid).throughput_series)


def test_results_come_back_in_task_order():
    tasks = [BatchTask(_spec(), seed) for seed in (7, 3, 11)]
    results = BatchRunner(workers=2).run(tasks)
    assert [item.task.seed for item in results] == [7, 3, 11]
    assert [item.result.seed for item in results] == [7, 3, 11]


def test_expand_tasks_is_stable_and_prefix_consistent():
    spec = _spec()
    four = expand_tasks(spec, 4, base_seed=9)
    again = expand_tasks(spec, 4, base_seed=9)
    assert [t.seed for t in four] == [t.seed for t in again]
    # replicate i keeps its seed no matter how many replicates run
    two = expand_tasks(spec, 2, base_seed=9)
    assert [t.seed for t in two] == [t.seed for t in four[:2]]
    # the derivation is the registry's rule, name-spaced per scenario
    assert four[0].seed == derive_seed(9, "batch:tiny:0")
    other = expand_tasks(_spec(name="other"), 4, base_seed=9)
    assert [t.seed for t in other] != [t.seed for t in four]


def test_expand_tasks_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        expand_tasks(_spec(), 0)


def test_scenario_path_matches_harness_built_network():
    """The scenario-dict rendering of figure5_6's corelite network is the
    same network: the report's REPL row, which runs it through the batch
    runner, relies on this."""
    duration, seed, num_flows = 12.0, 3, 10
    harness = figure5_6(duration=duration, num_flows=num_flows, seed=seed).corelite
    scenario = {
        "scheme": "corelite",
        "duration": duration,
        "seed": seed,
        "topology": {"kind": "chain", "num_cores": 2},
        "flows": [
            {"id": i, "weight": float(math.ceil(i / 2))}
            for i in range(1, num_flows + 1)
        ],
    }
    assert _payload_text(harness) == _payload_text(run_scenario(scenario))


# ---------------------------------------------------------------------------
# ScenarioSpec / BatchTask validation
# ---------------------------------------------------------------------------


def test_spec_rejects_baked_in_seed():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="x", scenario={"seed": 1, "flows": []})


def test_spec_rejects_non_json_content():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="x", scenario={"flows": [object()]})


def test_spec_snapshots_the_scenario_dict():
    scenario = {"scheme": "corelite", "flows": [{"id": 1}]}
    spec = ScenarioSpec(name="x", scenario=scenario)
    key_before = BatchTask(spec, 0).cache_key()
    scenario["flows"].append({"id": 2})  # caller mutates after submission
    assert BatchTask(spec, 0).cache_key() == key_before


def test_cache_key_depends_on_scenario_and_seed():
    a = BatchTask(_spec(), 0)
    b = BatchTask(_spec(), 1)
    changed = dict(TINY)
    changed["duration"] = 7.0
    c = BatchTask(_spec(scenario=changed), 0)
    keys = {a.cache_key(), b.cache_key(), c.cache_key()}
    assert len(keys) == 3
    assert a.cache_key() == BatchTask(_spec(), 0).cache_key()


def test_runner_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        BatchRunner(workers=0)
    with pytest.raises(ConfigurationError):
        BatchRunner(start_method="no-such-method")
    with pytest.raises(ConfigurationError):
        BatchRunner().run([])
    task = BatchTask(_spec(), 0)
    with pytest.raises(ConfigurationError):
        BatchRunner().run([task, task])


# ---------------------------------------------------------------------------
# The on-disk cache
# ---------------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    runner = BatchRunner(workers=1, cache_dir=cache)
    tasks = [BatchTask(_spec(), seed) for seed in (0, 1)]

    cold = runner.run(tasks)
    assert [item.cached for item in cold] == [False, False]
    assert len(os.listdir(cache)) == 2

    warm = runner.run(tasks)
    assert [item.cached for item in warm] == [True, True]
    for a, b in zip(cold, warm):
        assert _payload_text(a.result) == _payload_text(b.result)


def test_cache_partial_hit_runs_only_misses(tmp_path):
    cache = str(tmp_path / "cache")
    runner = BatchRunner(workers=1, cache_dir=cache)
    runner.run([BatchTask(_spec(), 0)])
    mixed = runner.run([BatchTask(_spec(), 0), BatchTask(_spec(), 5)])
    assert [item.cached for item in mixed] == [True, False]


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = str(tmp_path / "cache")
    runner = BatchRunner(workers=1, cache_dir=cache)
    task = BatchTask(_spec(), 0)
    first = runner.run([task])[0]
    path = os.path.join(cache, f"{task.cache_key()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    again = runner.run([task])[0]
    assert not again.cached
    assert _payload_text(first.result) == _payload_text(again.result)
    # and the rerun repaired the entry
    assert runner.run([task])[0].cached


def test_no_cache_dir_disables_caching():
    runner = BatchRunner(workers=1, cache_dir=None)
    task = BatchTask(_spec(), 0)
    assert not runner.run([task])[0].cached
    assert not runner.run([task])[0].cached


# ---------------------------------------------------------------------------
# Payload round-trip
# ---------------------------------------------------------------------------


def test_result_payload_round_trip_is_exact():
    scenario = dict(TINY)
    scenario["seed"] = 2
    scenario["record_queues"] = True
    result = run_scenario(scenario)
    rebuilt = result_from_payload(result_to_payload(result))
    assert _payload_text(result) == _payload_text(rebuilt)
    assert rebuilt.scheme == result.scheme
    assert rebuilt.flow_ids == result.flow_ids
    assert rebuilt.record(1).demand == result.record(1).demand  # inf survives
    assert set(rebuilt.queue_series) == set(result.queue_series)
    # derived quantities work on the rebuilt object
    window = (0.75 * result.duration, result.duration)
    assert rebuilt.mean_rates(window) == result.mean_rates(window)
    assert rebuilt.expected_rates(at_time=3.0) == result.expected_rates(at_time=3.0)


def test_policy_drops_survive_the_payload():
    scenario = dict(TINY, scheme="csfq", duration=12.0)
    result = run_scenario(scenario)
    assert result.policy_drops > 0  # CSFQ's filter dropped ahead of the buffers
    assert result_from_payload(result_to_payload(result)).policy_drops == result.policy_drops


# ---------------------------------------------------------------------------
# Aggregation helpers
# ---------------------------------------------------------------------------


def _batch(seeds=(0, 1, 2)):
    return BatchRunner(workers=1).run([BatchTask(_spec(), s) for s in seeds])


def test_batch_metrics_and_table():
    results = _batch()
    summaries = batch_metrics(results)
    assert set(summaries) == {"weighted_jain", "delivered", "losses", "drops"}
    for summary in summaries.values():
        assert len(summary.values) == 3
        assert summary.lo <= summary.mean <= summary.hi
    table = batch_summary_table(summaries)
    assert "weighted_jain" in table and "ci95" in table


def test_batch_metrics_custom_fn():
    results = _batch(seeds=(0, 1))
    summaries = batch_metrics(
        results, metric_fn=lambda r: {"delivered": r.total_delivered()}
    )
    assert set(summaries) == {"delivered"}
    assert summaries["delivered"].values == tuple(
        float(item.result.total_delivered()) for item in results
    )


def test_scalar_metrics_window():
    result = _batch(seeds=(0,))[0].result
    metrics = scalar_metrics(result, (4.0, 6.0))
    assert 0.0 < metrics["weighted_jain"] <= 1.0
    assert metrics["delivered"] > 0


def test_mean_ci():
    mean, half = mean_ci([2.0])
    assert (mean, half) == (2.0, 0.0)
    mean, half = mean_ci([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    # t(df=2, 95%) = 4.303; stdev = 1; n = 3
    assert half == pytest.approx(4.303 / math.sqrt(3), rel=1e-3)
    # An untabulated df takes the largest tabulated df below it, whose t is
    # the larger (conservative): df 16 -> t(15), df 39 -> t(30).
    for n, t in ((17, 2.131), (40, 2.042)):
        values = [float(i % 2) for i in range(n)]
        _, half = mean_ci(values)
        assert half == pytest.approx(t * statistics.stdev(values) / math.sqrt(n), rel=1e-9)
    with pytest.raises(ConfigurationError):
        mean_ci([])


def test_pool_map_matches_inline():
    items = list(range(6))
    assert pool_map(_square, items, workers=1) == [i * i for i in items]
    assert pool_map(_square, items, workers=2) == [i * i for i in items]


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# The CLI subcommand
# ---------------------------------------------------------------------------


def test_cli_batch_runs_and_caches(tmp_path, capsys):
    scenario_path = tmp_path / "tiny.json"
    scenario_path.write_text(json.dumps(TINY), encoding="utf-8")
    cache = str(tmp_path / "cache")
    out = str(tmp_path / "out.json")

    argv = ["batch", str(scenario_path), "--seeds", "0,1", "--workers", "1",
            "--cache-dir", cache, "--json", out]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert "2 tasks" in first and "0 cache hit(s)" in first

    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert "2 cache hit(s)" in second

    with open(out, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["cache_hits"] == 2
    assert [task["seed"] for task in payload["tasks"]] == [0, 1]
    assert "weighted_jain" in payload["summary"]


def test_cli_batch_derived_seeds(tmp_path, capsys):
    scenario_path = tmp_path / "tiny.json"
    scenario_path.write_text(json.dumps(TINY), encoding="utf-8")
    assert cli_main(["batch", str(scenario_path), "--num-seeds", "2",
                     "--base-seed", "5", "--no-cache"]) == 0
    out = capsys.readouterr().out
    expected = derive_seed(5, "batch:tiny:0")
    assert str(expected) in out
