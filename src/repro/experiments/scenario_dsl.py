"""Declarative scenarios: experiments as plain dicts / JSON files.

Downstream users shouldn't need to write harness code to try a topology:
``run_scenario`` builds and runs a cloud from a JSON-compatible dict, and
``corelite run scenario.json`` does it from the shell.  Example::

    {
      "scheme": "corelite",
      "seed": 3,
      "duration": 120,
      "network": {"num_cores": 2, "core_capacity_pps": 500},
      "config": {"edge_epoch": 0.3},
      "flows": [
        {"id": 1, "weight": 1},
        {"id": 2, "weight": 2, "schedule": [[10, 60], [70, null]]},
        {"id": 3, "weight": 1, "source": {"kind": "poisson", "mean_rate": 60}},
        {"id": 4, "weight": 1, "transport": "tcp"}
      ]
    }

Arbitrary clouds use the declarative ``"topology"`` key instead of the
``"network"`` shape knobs — a canned shape or a custom link list
(:meth:`repro.experiments.topospec.TopologySpec.from_dict`)::

    {
      "scheme": "csfq",
      "topology": {"kind": "parking_lot", "hops": 3},
      "flows": [
        {"id": 1, "weight": 2, "ingress": "C1", "egress": "C4"},
        {"id": 2, "ingress": "C1", "egress": "C2"}
      ]
    }

    "topology": {"kind": "custom",
                 "links": [["A", "B", 500, 0.02], ["B", "C", 250, 0.02]]}

``"topology"`` and the ``"network"`` shape keys are mutually exclusive
(``control_loss_prob`` is still allowed under ``"network"``).  Unknown
keys are rejected (silent typos in experiment definitions are the
classic way to benchmark the wrong thing).

Scale knobs: a top-level ``"vectorized": true`` batches the Corelite
control plane — cores coalesce the feedback a link selects over one
congestion epoch (statistically equivalent, not byte-identical — see
docs/REPRODUCING.md; accepted and inert for csfq/fifo), a top-level
``"train": K`` opts the datapath into packet trains of up to K members
(also statistically pinned; the default ``train: 1`` is
byte-identical), and a per-flow ``"aggregate": N`` makes one flow entry
stand for a bucket of N identical member flows.  ``"vectorized"`` and
``"record_queues"`` must be JSON booleans and ``"train"`` a JSON
integer >= 1: a quoted ``"false"`` is not quietly truthy.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, Mapping, Tuple

from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.csfq.config import CsfqConfig
from repro.errors import ConfigurationError
from repro.experiments.network import (
    BaseNetwork,
    CoreliteNetwork,
    CsfqNetwork,
    FifoLossNetwork,
    FlowSpec,
)
from repro.experiments.runner import RunResult
from repro.experiments.topospec import TopologySpec
from repro.sim.sources import SourceSpec, onoff_source, poisson_source, transfer_source

__all__ = ["build_network", "run_scenario", "load_scenario_file"]

_SCHEMES = {
    "corelite": CoreliteNetwork,
    "csfq": CsfqNetwork,
    "fifo": FifoLossNetwork,
}

_TOP_KEYS = {"scheme", "seed", "duration", "sample_interval", "record_queues",
             "network", "topology", "config", "flows", "description",
             "vectorized", "train"}
_NETWORK_KEYS = {"num_cores", "core_capacity_pps", "access_capacity_pps",
                 "prop_delay", "queue_capacity", "control_loss_prob",
                 "core_links"}
#: Network keys that describe the graph shape, and therefore clash with
#: an explicit "topology" section.
_NETWORK_SHAPE_KEYS = _NETWORK_KEYS - {"control_loss_prob"}
_FLOW_KEYS = {"id", "weight", "ingress", "egress", "schedule", "min_rate",
              "source", "transport", "micro_flows", "aggregate"}
_SOURCE_KEYS = {"kind", "mean_rate", "peak_rate", "mean_on", "mean_off",
                "total_packets"}


def _reject_unknown(mapping: Mapping, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")


def _flag(scenario: Mapping, key: str) -> bool:
    """A top-level on/off knob; only a JSON boolean will do."""
    value = scenario.get(key, False)
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"scenario: {key!r} must be true or false, got {value!r}"
        )
    return value


def _train_batch(scenario: Mapping) -> int:
    value = scenario.get("train", 1)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(
            f"scenario: 'train' must be an integer >= 1, got {value!r}"
        )
    return value


def _parse_source(spec: Mapping) -> SourceSpec:
    _reject_unknown(spec, _SOURCE_KEYS, "source")
    kind = spec.get("kind")
    if kind == "poisson":
        return poisson_source(float(spec["mean_rate"]))
    if kind == "onoff":
        return onoff_source(
            float(spec["peak_rate"]), float(spec["mean_on"]), float(spec["mean_off"])
        )
    if kind == "transfer":
        return transfer_source(int(spec["total_packets"]), float(spec["peak_rate"]))
    raise ConfigurationError(f"source: unknown kind {kind!r}")


def _parse_schedule(raw) -> Tuple[Tuple[float, float], ...]:
    periods = []
    for entry in raw:
        if len(entry) != 2:
            raise ConfigurationError(f"schedule period must be [start, stop]: {entry!r}")
        start, stop = entry
        periods.append((float(start), math.inf if stop is None else float(stop)))
    return tuple(periods)


def _parse_flow(raw: Mapping, default_ingress: str, default_egress: str) -> FlowSpec:
    _reject_unknown(raw, _FLOW_KEYS, f"flow {raw.get('id')!r}")
    if "id" not in raw:
        raise ConfigurationError("every flow needs an 'id'")
    kwargs: Dict[str, object] = {
        "flow_id": int(raw["id"]),
        "weight": float(raw.get("weight", 1.0)),
        "ingress_core": raw.get("ingress", default_ingress),
        "egress_core": raw.get("egress", default_egress),
        "min_rate": float(raw.get("min_rate", 0.0)),
        "transport": raw.get("transport", "shaped"),
        "aggregate": int(raw.get("aggregate", 1)),
    }
    if "schedule" in raw:
        kwargs["schedule"] = _parse_schedule(raw["schedule"])
    if "source" in raw:
        kwargs["source"] = _parse_source(raw["source"])
    if "micro_flows" in raw:
        kwargs["micro_flows"] = tuple(
            (int(mid), _parse_source(source)) for mid, source in raw["micro_flows"]
        )
    return FlowSpec(**kwargs)  # type: ignore[arg-type]


def build_network(scenario: Mapping) -> BaseNetwork:
    """Construct the network (with flows attached) from a scenario dict."""
    _reject_unknown(scenario, _TOP_KEYS, "scenario")
    scheme = scenario.get("scheme", "corelite")
    if scheme not in _SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; pick one of {sorted(_SCHEMES)}"
        )
    vectorized = _flag(scenario, "vectorized")
    _flag(scenario, "record_queues")  # run_scenario's knob; fail before building
    train_batch = _train_batch(scenario)
    config_cls = CoreliteConfig if scheme == "corelite" else CsfqConfig
    config_raw = scenario.get("config")
    if config_raw:
        _reject_unknown(
            config_raw,
            {field.name for field in dataclasses.fields(config_cls)},
            "config",
        )
    network_raw = dict(scenario.get("network", {}))
    _reject_unknown(network_raw, _NETWORK_KEYS, "network")
    if "topology" in scenario:
        clashing = sorted(set(network_raw) & _NETWORK_SHAPE_KEYS)
        if clashing:
            raise ConfigurationError(
                f"scenario: 'topology' and network shape keys {clashing} are "
                "mutually exclusive — describe the graph in one place"
            )
        network_raw["topology_spec"] = TopologySpec.from_dict(scenario["topology"])
    if "core_links" in network_raw:
        network_raw["core_links"] = [
            (str(a), str(b), float(cap), float(delay))
            for a, b, cap, delay in network_raw["core_links"]
        ]

    config = None
    if config_raw:
        if "feedback_scheme" in config_raw:
            config_raw = dict(config_raw)
            config_raw["feedback_scheme"] = FeedbackScheme(
                config_raw["feedback_scheme"]
            )
        config = config_cls(**config_raw)

    cls = _SCHEMES[scheme]
    kwargs = dict(network_raw)
    kwargs["seed"] = int(scenario.get("seed", 0))
    kwargs["vectorized"] = vectorized
    kwargs["train_batch"] = train_batch
    if config is not None:
        kwargs["config"] = config
    net = cls(**kwargs)  # type: ignore[arg-type]

    flows_raw = scenario.get("flows")
    if not flows_raw:
        raise ConfigurationError("scenario needs at least one flow")
    first, last = net.core_names[0], net.core_names[-1]
    for raw in flows_raw:
        net.add_flow(_parse_flow(raw, default_ingress=first, default_egress=last))
    return net


def run_scenario(scenario: Mapping) -> RunResult:
    """Build and run a scenario; returns the usual :class:`RunResult`."""
    net = build_network(scenario)
    duration = float(scenario.get("duration", 60.0))
    return net.run(
        until=duration,
        sample_interval=float(scenario.get("sample_interval", 1.0)),
        record_queues=_flag(scenario, "record_queues"),
    )


def load_scenario_file(path: str) -> Dict:
    """Read a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        scenario = json.load(fh)
    if not isinstance(scenario, dict):
        raise ConfigurationError(f"{path}: scenario must be a JSON object")
    return scenario
