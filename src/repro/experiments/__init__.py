"""Experiment harness: topologies, scenarios, runners and figure generators.

* :mod:`repro.experiments.topospec` — the declarative layer:
  :class:`TopologySpec` / :class:`FlowPathSpec` describe an arbitrary
  cloud as plain data (canned chains, parking lots, stars, meshes, or
  custom link lists; JSON round-trippable).
* :mod:`repro.experiments.builder` — the assembly layer:
  :class:`CloudBuilder` wires a spec into a running cloud through a
  per-scheme :class:`SchemeStrategy` (Corelite, CSFQ or FIFO) — the one
  front door every figure, ablation, scenario and example goes through.
* :mod:`repro.experiments.runner` — result containers: per-flow rate /
  throughput / cumulative-service series plus expected-rate computation.
* :mod:`repro.experiments.scenarios` — the paper's §4 flow sets and
  schedules (Topology 1 weights, staggered entry, churn).
* :mod:`repro.experiments.figures` — one generator per paper figure
  (Figures 3-10); each returns the series the figure plots.
* :mod:`repro.experiments.ablations` — parameter sweeps (epoch size,
  qthresh, the Fn constant ``k``, feedback scheme).
* :mod:`repro.experiments.report` — ASCII tables and charts for the CLI
  and the examples.
* :mod:`repro.experiments.parallel` — multi-seed batch execution over a
  process pool with deterministic replay and an on-disk result cache.
"""

from repro.experiments.builder import (
    Cloud,
    CloudBuilder,
    CoreliteStrategy,
    CsfqStrategy,
    FifoStrategy,
    SchemeStrategy,
)
from repro.experiments.topospec import FlowPathSpec, FlowSpec, LinkSpec, TopologySpec
from repro.experiments.parallel import (
    BatchResult,
    BatchRunner,
    BatchTask,
    ScenarioSpec,
    expand_tasks,
)
from repro.experiments.runner import FlowRecord, RunResult

__all__ = [
    "LinkSpec",
    "TopologySpec",
    "FlowPathSpec",
    "FlowSpec",
    "Cloud",
    "CloudBuilder",
    "SchemeStrategy",
    "CoreliteStrategy",
    "CsfqStrategy",
    "FifoStrategy",
    "RunResult",
    "FlowRecord",
    "ScenarioSpec",
    "BatchTask",
    "BatchResult",
    "BatchRunner",
    "expand_tasks",
]
