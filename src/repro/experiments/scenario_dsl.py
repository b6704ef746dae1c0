"""Declarative scenarios: experiments as plain dicts / JSON files.

Downstream users shouldn't need to write harness code to try a topology:
``run_scenario`` builds and runs a cloud from a JSON-compatible dict, and
``corelite run scenario.json`` does it from the shell.  Example::

    {
      "scheme": "corelite",
      "seed": 3,
      "duration": 120,
      "topology": {"kind": "chain", "num_cores": 2, "capacity_pps": 500},
      "config": {"edge_epoch": 0.3},
      "flows": [
        {"id": 1, "weight": 1},
        {"id": 2, "weight": 2, "schedule": [[10, 60], [70, null]]},
        {"id": 3, "weight": 1, "source": {"kind": "poisson", "mean_rate": 60}},
        {"id": 4, "weight": 1, "transport": "tcp"}
      ]
    }

``"topology"`` is the one description of the graph: a canned shape or a
custom link list (:func:`parse_topology`); without it the cloud is a
2-core chain (``TopologySpec.chain(2)``)::

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

Unknown keys are rejected (silent typos in experiment definitions are
the classic way to benchmark the wrong thing).

Scale knobs: a top-level ``"vectorized": true`` batches the Corelite
control plane — cores coalesce the feedback a link selects over one
congestion epoch (statistically equivalent, not byte-identical — see
docs/REPRODUCING.md; accepted and inert for csfq/fifo), a top-level
``"train": K`` opts Corelite's datapath into packet trains of up to K
members (also statistically pinned; the default ``train: 1`` is
byte-identical; inert for csfq/fifo, whose edges stay scalar), and a
per-flow ``"aggregate": N`` makes one flow entry stand for a bucket of N
identical always-backlogged member flows.  Every value, the
``"topology"`` section's included, is read through one typed reader: a
quoted ``"false"`` or ``"4"``, a missing ``mean_rate`` or a short
``links`` row is a ``ConfigurationError`` naming the key and the
value, raised before any cloud is built.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict, Mapping, Tuple

from repro.core.config import FeedbackScheme
from repro.errors import ConfigurationError, TopologyError
from repro.experiments.builder import SCHEME_STRATEGIES, Cloud, CloudBuilder
from repro.experiments.runner import RunResult
from repro.experiments.topospec import CANNED_TOPOLOGIES, FlowSpec, LinkSpec, TopologySpec
from repro.sim.dynamics import NetworkEvent
from repro.sim.sources import SourceSpec, onoff_source, poisson_source, transfer_source

__all__ = ["build_network", "run_scenario", "load_scenario_file"]

_TOP_KEYS = {"scheme", "seed", "duration", "sample_interval", "record_queues",
             "topology", "config", "flows", "description", "vectorized", "train"}
_FLOW_KEYS = {"id", "weight", "ingress", "egress", "schedule", "min_rate",
              "source", "transport", "aggregate"}
_SOURCE_KEYS = {"kind", "mean_rate", "peak_rate", "mean_on", "mean_off",
                "total_packets"}
#: ``"topology"`` keys every kind reads, with their JSON kind.
_TOPOLOGY_VALUES = {"name": "str", "access_capacity_pps": "number",
                    "access_prop_delay": "number", "queue_capacity": "number",
                    "routing_mode": "str", "ecmp_flowlet_n_packets": "int"}
#: Canned ``"topology"`` kind -> its integer size keys and their defaults.
_TOPOLOGY_SIZES = {"chain": (("num_cores", 4),), "parking_lot": (("hops", 3),),
                   "leaf_spine": (("leaves", 3), ("spines", 2)), "fat_tree": (("k", 2),)}
_TOPOLOGY_KEYS = {"kind", "cores", "links", "events", "capacity_pps", "prop_delay",
                  "num_cores", "hops", "leaves", "spines", "k",
                  *_TOPOLOGY_VALUES}
#: A custom ``"topology"`` link row: [a, b, capacity_pps, prop_delay(, queue)].
_LINK_ROW = ("str", "str", "number", "number", "number")

#: JSON kind -> (accepted Python types, how an error names the kind).
_KINDS = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "number": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "list": ((list, tuple), "a list"),
    "object": ((Mapping,), "an object"),
}
_REQUIRED = object()


def _typed(value, kind: str, where: str):
    """``value`` if it is a JSON ``kind`` (numbers come back as float),
    else a ConfigurationError naming ``where`` and the offending value.
    A quoted number is a string and a boolean is not a number."""
    types, noun = _KINDS[kind]
    if not isinstance(value, types) or (kind != "bool" and isinstance(value, bool)):
        raise ConfigurationError(f"{where} must be {noun}, got {value!r}")
    return float(value) if kind == "number" else value


def _read(mapping: Mapping, key: str, kind: str, section: str, default=_REQUIRED):
    """The one typed reader: ``mapping[key]`` as ``kind``, or ``default``."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigurationError(f"{section}: missing {key!r}")
        return default
    return _typed(mapping[key], kind, f"{section}: {key!r}")


def _section(raw, allowed: set, where: str) -> Mapping:
    """``raw`` as an object with no keys outside ``allowed``."""
    unknown = set(_typed(raw, "object", where)) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
    return raw


def _row(raw, length: int, where: str):
    """``raw`` as a list of exactly ``length`` elements."""
    if len(_typed(raw, "list", where)) != length:
        raise ConfigurationError(f"{where} must have {length} elements, got {raw!r}")
    return raw


def _parse_source(raw, where: str) -> SourceSpec:
    spec = _section(raw, _SOURCE_KEYS, where)
    kind = spec.get("kind")
    if kind == "poisson":
        return poisson_source(_read(spec, "mean_rate", "number", where))
    if kind == "onoff":
        return onoff_source(
            _read(spec, "peak_rate", "number", where),
            _read(spec, "mean_on", "number", where),
            _read(spec, "mean_off", "number", where),
        )
    if kind == "transfer":
        return transfer_source(
            _read(spec, "total_packets", "int", where),
            _read(spec, "peak_rate", "number", where),
        )
    raise ConfigurationError(f"{where}: unknown kind {kind!r}")


def _parse_schedule(raw, where: str) -> Tuple[Tuple[float, float], ...]:
    periods = []
    for entry in _typed(raw, "list", where):
        start, stop = _row(entry, 2, f"{where} period [start, stop]")
        periods.append((
            _typed(start, "number", f"{where} start"),
            math.inf if stop is None else _typed(stop, "number", f"{where} stop"),
        ))
    return tuple(periods)


def _parse_flow(raw, default_ingress: str, default_egress: str) -> FlowSpec:
    where = f"flow {_typed(raw, 'object', 'flows entry').get('id')!r}"
    _section(raw, _FLOW_KEYS, where)
    kwargs: Dict[str, object] = {
        "flow_id": _read(raw, "id", "int", where),
        "weight": _read(raw, "weight", "number", where, 1.0),
        "ingress_core": _read(raw, "ingress", "str", where, default_ingress),
        "egress_core": _read(raw, "egress", "str", where, default_egress),
        "min_rate": _read(raw, "min_rate", "number", where, 0.0),
        "transport": _read(raw, "transport", "str", where, "shaped"),
        "aggregate": _read(raw, "aggregate", "int", where, 1),
    }
    if "schedule" in raw:
        kwargs["schedule"] = _parse_schedule(raw["schedule"], f"{where}: 'schedule'")
    if "source" in raw:
        kwargs["source"] = _parse_source(raw["source"], f"{where}: 'source'")
    return FlowSpec(**kwargs)  # type: ignore[arg-type]


def _parse_config(raw, config_cls):
    """A scheme config from its JSON fields, each read as the kind of
    the dataclass default it overrides."""
    fields = {field.name: field for field in dataclasses.fields(config_cls)}
    kwargs = {}
    for name in _section(raw, set(fields), "config"):
        default = fields[name].default
        if isinstance(default, FeedbackScheme):
            names = [scheme.value for scheme in FeedbackScheme]
            if raw[name] not in names:
                raise ConfigurationError(
                    f"config: {name!r} must be one of {names}, got {raw[name]!r}"
                )
            kwargs[name] = FeedbackScheme(raw[name])
        else:
            kind = "str" if isinstance(default, str) else "number"
            kwargs[name] = _read(raw, name, kind, "config")
    return config_cls(**kwargs)


def parse_event(raw) -> NetworkEvent:
    """One ``{"time": t, "kind": k, "link": [a, b]}`` entry of a topology's
    ``"events"`` (also :meth:`NetworkEvent.from_dict`)."""
    where = "network event"
    spec = _section(raw, {"time", "kind", "link"}, where)
    link = _row(_read(spec, "link", "list", where), 2, f"{where}: 'link'")
    return NetworkEvent(
        time=_read(spec, "time", "number", where),
        kind=_read(spec, "kind", "str", where),
        a=_typed(link[0], "str", f"{where}: 'link'"),
        b=_typed(link[1], "str", f"{where}: 'link'"),
    )


def parse_topology(raw) -> TopologySpec:
    """The ``"topology"`` section (also :meth:`TopologySpec.from_dict`): a
    canned ``kind`` with its size knobs, or a ``"custom"`` graph of
    ``"links"`` rows.  A mis-typed value is a ConfigurationError naming
    its key; an unknown key or kind, or a custom graph without links, a
    TopologyError."""
    if not isinstance(raw, Mapping):
        raise TopologyError(f"topology: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _TOPOLOGY_KEYS
    if unknown:
        raise TopologyError(
            f"topology: unknown keys {sorted(unknown)} (known: {sorted(_TOPOLOGY_KEYS)})"
        )
    common = {key: _read(raw, key, value_kind, "topology")
              for key, value_kind in _TOPOLOGY_VALUES.items() if key in raw}
    if "events" in raw:
        common["events"] = tuple(
            parse_event(entry) for entry in _read(raw, "events", "list", "topology")
        )
    kind = _read(raw, "kind", "str", "topology", "custom")
    if kind in CANNED_TOPOLOGIES:
        sizes = [_read(raw, key, "int", "topology", default)
                 for key, default in _TOPOLOGY_SIZES.get(kind, ())]
        sized = {key: _read(raw, key, "number", "topology")
                 for key in ("capacity_pps", "prop_delay") if key in raw}
        return CANNED_TOPOLOGIES[kind](*sizes, **sized, **common)
    if kind != "custom":
        raise TopologyError(
            f"topology: unknown kind {kind!r} "
            f"(known: {sorted(CANNED_TOPOLOGIES) + ['custom']})"
        )
    if "links" not in raw:
        raise TopologyError(
            "topology: a custom topology needs a 'links' list of "
            "[a, b, capacity_pps, prop_delay] rows"
        )
    if "cores" in raw:
        common["cores"] = tuple(
            _typed(core, "str", "topology: 'cores' entry")
            for core in _read(raw, "cores", "list", "topology")
        )
    where = "topology: 'links' row [a, b, capacity_pps, prop_delay(, queue_capacity)]"
    links = []
    for row in _read(raw, "links", "list", "topology"):
        if len(_typed(row, "list", where)) not in (4, 5):
            raise ConfigurationError(f"{where} must have 4 or 5 elements, got {row!r}")
        links.append(LinkSpec(*(_typed(value, value_kind, where)
                                for value, value_kind in zip(row, _LINK_ROW))))
    return TopologySpec(links=tuple(links), **common)


def _parse(scenario: Mapping) -> Tuple[CloudBuilder, Dict[str, object]]:
    """Validate the whole scenario into a loaded builder and
    :meth:`Cloud.run`'s keywords.  No cloud exists yet: a malformed value
    dies here as a ConfigurationError naming its key (an impossible graph
    or flow as its spec's own TopologyError / FlowError)."""
    if "network" in _typed(scenario, "object", "scenario"):
        raise ConfigurationError(
            "scenario: there is no 'network' section; describe the graph under "
            "'topology'"
        )
    _section(scenario, _TOP_KEYS, "scenario")
    scheme = scenario.get("scheme", "corelite")
    if scheme not in SCHEME_STRATEGIES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; pick one of {sorted(SCHEME_STRATEGIES)}"
        )

    def top(key: str, kind: str, default):
        return _read(scenario, key, kind, "scenario", default)

    run_kwargs = {
        "until": top("duration", "number", 60.0),
        "sample_interval": top("sample_interval", "number", 1.0),
        "record_queues": top("record_queues", "bool", False),
    }
    build_kwargs = {
        "seed": top("seed", "int", 0),
        "vectorized": top("vectorized", "bool", False),
        "train_batch": top("train", "int", 1),
    }
    if build_kwargs["train_batch"] < 1:
        raise ConfigurationError(
            f"scenario: 'train' must be >= 1, got {build_kwargs['train_batch']!r}"
        )
    if scenario.get("config"):
        config_cls = SCHEME_STRATEGIES[scheme]().config_cls
        build_kwargs["config"] = _parse_config(scenario["config"], config_cls)
    topology = (
        parse_topology(scenario["topology"]) if "topology" in scenario
        else TopologySpec.chain(2)
    )
    flows = top("flows", "list", ())
    if not flows:
        raise ConfigurationError("scenario needs at least one flow")
    first, last = topology.cores[0], topology.cores[-1]
    builder = CloudBuilder(topology, scheme, **build_kwargs)
    builder.add_flows(_parse_flow(raw, first, last) for raw in flows)
    return builder, run_kwargs


def build_network(scenario: Mapping) -> Cloud:
    """The scenario's cloud, flows attached, not yet finalized."""
    return _parse(scenario)[0].build(finalize=False)


def run_scenario(scenario: Mapping) -> RunResult:
    """Build and run a scenario; returns the usual :class:`RunResult`."""
    builder, run_kwargs = _parse(scenario)
    return builder.run(**run_kwargs)


def load_scenario_file(path: str) -> Dict:
    """Read a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        scenario = json.load(fh)
    if not isinstance(scenario, dict):
        raise ConfigurationError(f"{path}: scenario must be a JSON object")
    return scenario
