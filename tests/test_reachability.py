"""Static reachability guard: no ``src/repro`` code that only tests reach.

Two rules, checked on the source text (AST plus text search) without
running any of it:

* every module under ``src/repro`` has an importer outside ``tests/``;
* every function or class a module lists in ``__all__`` is used outside
  ``tests/``, counting neither its own definition nor its package
  ``__init__`` re-exports.  A use is a reference in code, or a Sphinx
  cross-reference (``:func:`name```) in another API's docstring — that
  API's contract is stated in terms of it.  The module's own docstring
  does not count.  Constants and aliases in ``__all__`` carry no code of
  their own and are not checked.

The consumers searched are the package itself, ``benchmarks/`` and
``examples/``: the front doors a user or a benchmark runs.  Code that
fails a rule runs only under its own tests; give it a front-door consumer
or delete it with those tests.  A third test imports every module but
``__main__`` and checks that each ``__all__`` name resolves.

``ALLOWLIST`` names the few symbols that wait for a consumer already
planned, each with that consumer.  An entry that is no longer needed
(its symbol gained a consumer or was deleted) fails
``test_allowlist_entries_are_still_needed``, so the list only shrinks.

A fourth test keeps write-only counters off the per-packet path: an
attribute ``+=``'d in a per-packet frame (``PER_PACKET_FRAMES``) must be
read somewhere in ``src/`` outside a ``__repr__``, or be one of
``WRITE_ONLY_COUNTERS``, each with the reason it stays.

A fifth keeps knobs no caller turns out of the scheme configs: every field
of ``EdgeConfig``, ``CoreliteConfig`` and ``CsfqConfig`` must be set
outside ``tests/`` (see :func:`set_config_fields`) or be one of
``CONFIG_ALLOWLIST``, each with the paper section or DESIGN.md row its
value comes from.  A value only tests vary is a module constant at its
reader instead.

A sixth does the same one level up, for the inputs of a cloud: every
keyword of ``CloudBuilder``, every field of ``TopologySpec`` and
``FlowPathSpec`` and every key of the scenario DSL must be set outside
``tests/`` (see :func:`set_inputs`) or be one of ``INPUT_ALLOWLIST``, each
with the reason it stays.  An input only tests set selects code only tests
run: delete it with that code.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONSUMER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Modules that need no importer: ``python -m repro`` runs ``__main__``.
ENTRY_MODULES = {"repro.__main__"}

_THEORY = "ROADMAP item 6 (operating envelope) overlays the control-loop theory"
_FLUID = "ROADMAP item 6 overlays the fluid LIMD trajectory on its sweep"

#: dotted module or ``module.name`` -> why it stays without a consumer.
ALLOWLIST: Dict[str, str] = {
    "repro.core.theory": _THEORY,
    "repro.core.theory.slow_start_exit": _THEORY,
    "repro.core.theory.linear_climb_time": _THEORY,
    "repro.core.theory.oscillation_band": _THEORY,
    "repro.core.theory.loop_budget": _THEORY,
    "repro.fairness.chiu_jain.simulate_fluid_limd": _FLUID,
    "repro.fairness.chiu_jain.convergence_epochs": _FLUID,
    "repro.experiments.scenario_dsl.build_network": (
        "the public scenario -> Cloud entry: builds a cloud from a scenario "
        "mapping without running it"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: A Sphinx cross-reference such as ``:func:`repro.sim.routing.shortest_paths```.
_XREF = re.compile(r":[a-z]+:`~?([\w.]+)`")


def _walk_skipping(tree: ast.AST, skip: Set[int]) -> Iterator[ast.AST]:
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


class Source:
    """One Python file outside ``tests/``, parsed once."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        self.is_init = path.name == "__init__.py"
        #: ``repro.a.b`` for a file under ``src/``, None elsewhere.
        self.module: Optional[str] = None
        if SRC in path.parents:
            parts = list(path.relative_to(SRC).with_suffix("").parts)
            if self.is_init:
                parts.pop()
            self.module = ".".join(parts)

    @property
    def package(self) -> str:
        if self.module is None or self.is_init:
            return self.module or ""
        return self.module.rpartition(".")[0]

    def docstring_node(self) -> Optional[ast.AST]:
        body = self.tree.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            return body[0]
        return None

    def references(self, skip: Set[int] = frozenset()) -> Set[str]:
        """Every name this file refers to outside the ``skip`` nodes.

        A package ``__init__`` counts only references in code: importing a
        name and listing it in ``__all__`` re-exports it, it does not use
        it.  Elsewhere an imported name, a string equal to a name
        (``getattr``) and a docstring cross-reference count too.
        """
        refs: Set[str] = set()
        for node in _walk_skipping(self.tree, skip):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif self.is_init:
                continue
            elif isinstance(node, ast.ImportFrom):
                refs.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
                refs.update(
                    target.rpartition(".")[2] for target in _XREF.findall(node.value)
                )
        return refs


SOURCES = [
    Source(path) for top in CONSUMER_DIRS for path in sorted(top.rglob("*.py"))
]
PACKAGE = [source for source in SOURCES if source.module is not None]
#: Names each file refers to anywhere (the owner of a name is re-walked
#: without its definition, see :func:`unused_exports`).
REFERENCES = {source.path: source.references() for source in SOURCES}
_JSON = [
    json.loads(path.read_text(encoding="utf-8"))
    for top in CONSUMER_DIRS for path in sorted(top.rglob("*.json"))
]
#: The scenario files outside ``tests/``: JSON objects with ``"flows"``.
SCENARIO_FILES = [data for data in _JSON if isinstance(data, dict) and "flows" in data]


def _imported_modules(source: Source) -> Set[str]:
    """Every dotted module ``source`` imports, by statement or by name
    (``importlib.import_module("repro.x")``, PEP 562 export tables)."""
    found: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = source.package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            # ``from pkg import mod`` imports the submodule ``pkg.mod``.
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("repro."):
                found.add(node.value)
    return found


def unimported_modules() -> List[str]:
    """src/repro modules that no file outside ``tests/`` imports."""
    importers: Dict[str, Set[Path]] = {}
    for source in SOURCES:
        for module in _imported_modules(source):
            importers.setdefault(module, set()).add(source.path)
    return [
        source.module
        for source in PACKAGE
        if not source.is_init
        and source.module not in ENTRY_MODULES
        and not importers.get(source.module, set()) - {source.path}
    ]


def unused_exports() -> List[str]:
    """``module.name`` for every exported function or class only tests use."""
    unused = []
    for owner in PACKAGE:
        if owner.is_init:
            continue
        all_stmt = next(
            (
                node
                for node in owner.tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            ),
            None,
        )
        if all_stmt is None:
            continue
        defs = {node.name: node for node in owner.tree.body if isinstance(node, _DEFS)}
        for name in ast.literal_eval(all_stmt.value):
            if name not in defs:
                continue
            # Neither the definition, the ``__all__`` entry nor the module
            # docstring describing its own contents is a use.
            own = {id(all_stmt), id(defs[name]), id(owner.docstring_node())}
            if name in owner.references(own) or any(
                name in REFERENCES[source.path] for source in SOURCES if source is not owner
            ):
                continue
            unused.append(f"{owner.module}.{name}")
    return unused


def unresolved_exports() -> List[str]:
    """``module.name`` for every ``__all__`` name its module does not bind."""
    missing = []
    for source in PACKAGE:
        if source.module in ENTRY_MODULES:
            continue
        module = importlib.import_module(source.module)
        missing.extend(
            f"{source.module}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        )
    return missing


def _check(found: List[str], what: str) -> None:
    bad = sorted(item for item in found if item not in ALLOWLIST)
    assert not bad, f"{what}:\n  " + "\n  ".join(bad)


def test_every_module_has_an_importer_outside_tests():
    _check(unimported_modules(), "modules only tests import (delete, or add a consumer)")


def test_every_export_is_used_outside_tests():
    _check(unused_exports(), "exports only tests use (delete, or add a consumer)")


def test_every_export_resolves():
    _check(unresolved_exports(), "__all__ names that do not resolve")


def test_allowlist_entries_are_still_needed():
    flagged = set(unimported_modules()) | set(unused_exports())
    assert sorted(set(ALLOWLIST) - flagged) == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


#: The functions that run once per packet (or per train) on some datapath.
PER_PACKET_FRAMES = {
    "_fire", "_emit", "_emit_train", "receive", "_send_fast",
    "observe", "on_data", "on_train", "update",
    "record", "record_train",
}
_CONSERVATION = "tests/test_marker_carrier.py's marker-conservation check reads it"
_RUN_STATS = "a rare branch, not one per packet; an input to ROADMAP item 4's RunStats"
_TCP = "the TCP end host's transport statistics: host-side, not the cloud's datapath"

#: attribute -> why it is bumped per packet although ``src/`` never reads it.
WRITE_ONLY_COUNTERS: Dict[str, str] = {
    "markers_emitted": _CONSERVATION,
    "markers_received": _CONSERVATION,
    "idle_parks": _RUN_STATS,
    "swaps": _RUN_STATS,
    "overflow_drops": _RUN_STATS,
    "acks_received": _TCP,
    "duplicates": _TCP,
}


def write_only_counters() -> Set[str]:
    """Attributes ``+=``'d in a per-packet frame that no code in ``src/``
    loads outside a ``__repr__``."""
    bumped: Set[str] = set()
    loaded: Set[str] = set()

    def visit(node: ast.AST, frame: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__repr__":
                return
            frame = node.name
        if (
            frame in PER_PACKET_FRAMES
            and isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Attribute)
        ):
            bumped.add(node.target.attr)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, frame)

    for source in PACKAGE:
        visit(source.tree, None)
    return bumped - loaded


def test_no_write_only_counter_on_the_per_packet_path():
    found = write_only_counters()
    assert sorted(found - set(WRITE_ONLY_COUNTERS)) == [], (
        "counters bumped per packet that nothing in src/ reads: derive them "
        "at read time instead"
    )
    # The allowlist only shrinks: an entry the scan no longer flags goes.
    assert sorted(set(WRITE_ONLY_COUNTERS) - found) == []
    assert all(reason.strip() for reason in WRITE_ONLY_COUNTERS.values())


_PAPER = "a constant the paper names, kept a field beside its siblings"

#: config field -> where its value comes from, although nothing outside
#: ``tests/`` sets it.
CONFIG_ALLOWLIST: Dict[str, str] = {
    "ss_thresh": f"§4: slow-start threshold 32 pkt/s; {_PAPER}",
    "ss_double_interval": f"§4: 'doubling the sending rate every second'; {_PAPER}",
    "min_rate": f"§4/§6: the rate floor of the max(0, ...) decrease; {_PAPER}",
    "k_flow": f"§4: CSFQ's K = 100 ms; {_PAPER}",
    "k_window": f"§4: CSFQ's Klink = 100 ms; {_PAPER}",
}

#: Calls whose keywords set config fields.
_CONFIG_CALLS = {"EdgeConfig", "CoreliteConfig", "CsfqConfig", "replace"}


def config_fields() -> Set[str]:
    from repro.core.config import CoreliteConfig, EdgeConfig
    from repro.csfq.config import CsfqConfig

    return {
        field.name
        for cls in (EdgeConfig, CoreliteConfig, CsfqConfig)
        for field in dataclasses.fields(cls)
    }


def _name(node: ast.AST) -> str:
    return getattr(node, "id", None) or getattr(node, "attr", "")


def set_config_fields() -> Set[str]:
    """Names code outside ``tests/`` sets as config fields: a keyword of a
    config constructor or ``dataclasses.replace``, a string handed to a
    ``*sweep*`` function, an assignment to ``config.<field>`` that reads the
    field it writes (a clamp; an overwrite that ignores it makes the field
    a copy, not an input), or a key of a scenario's ``"config"`` object,
    in a Python dict or a JSON scenario file."""
    found: Set[str] = set()
    for source in SOURCES:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                name = _name(node.func)
                if name in _CONFIG_CALLS:
                    found.update(keyword.arg for keyword in node.keywords if keyword.arg)
                elif "sweep" in name:
                    found.update(
                        arg.value for arg in node.args
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and _name(target.value) == "config"
                        and any(
                            isinstance(read, ast.Attribute)
                            and read.attr == target.attr
                            and _name(read.value) == "config"
                            for read in ast.walk(node.value)
                        )
                    ):
                        found.add(target.attr)
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and key.value == "config"
                        and isinstance(value, ast.Dict)
                    ):
                        found.update(
                            field.value for field in value.keys
                            if isinstance(field, ast.Constant)
                        )
    for scenario in SCENARIO_FILES:
        found.update(scenario.get("config", {}))
    return found


def unset_config_fields() -> Set[str]:
    """Config fields nothing outside ``tests/`` sets."""
    return config_fields() - set_config_fields()


def test_every_config_field_is_set_outside_tests():
    found = unset_config_fields()
    assert sorted(found - set(CONFIG_ALLOWLIST)) == [], (
        "config fields only tests set: make each a module constant at its reader"
    )
    # The allowlist only shrinks: an entry that is set, or no field, goes.
    assert sorted(set(CONFIG_ALLOWLIST) - found) == []
    assert all(reason.strip() for reason in CONFIG_ALLOWLIST.values())


#: A scenario key -> the builder keyword, spec field or ``run`` keyword it
#: spells, where the names differ: one input, set when either spelling is.
DSL_SPELLINGS = {"topology": "spec", "train": "train_batch", "duration": "until",
                 "id": "flow_id", "ingress": "ingress_core", "egress": "egress_core"}

_MULTIPATH = (
    "ECMP / flowlet multipath and its fabrics: ROADMAP item 8 scores or deletes "
    "them once item 1(a) makes setup_s GC-proof (deleting the routers' "
    "multipath dicts doubles dense_scalar's setup_s at identical results)"
)
_PDES = "the partitioned runtime: deleted with it (ROADMAP item 3)"

#: input -> why it stays although nothing outside ``tests/`` sets it.
INPUT_ALLOWLIST: Dict[str, str] = {
    **dict.fromkeys(("routing_mode", "ecmp_flowlet_n_packets", "leaves", "spines", "k"),
                    _MULTIPATH),
    "partition_plan": _PDES,
    "pdes_mode": _PDES,
    "partitions": f"{_PDES}; corebench's pdes_w2 hands it on through `_dense(partitions)`",
    "total_packets": "finite transfers: S20's §4.3 short-flow claim waits for its row (item 8)",
    "queue_capacity": "§4 / Figure 2: the 40-packet core buffer, the default",
    "prop_delay": "Figure 2: 40 ms core links (240 / 400 ms RTTs), the chain's default",
    "access_prop_delay": "Figure 2: 40 ms access links, the default",
}

#: Calls whose keywords set inputs; their positions are not mapped.
_KEYWORDS_ONLY = ("add_flow", "run", "replace")


def _input_calls() -> Dict[str, object]:
    """Callee name -> the callable whose parameters a call's arguments set."""
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.topospec import CANNED_TOPOLOGIES, FlowPathSpec, TopologySpec
    from repro.sim import sources

    calls = {name: getattr(TopologySpec, name) for name in CANNED_TOPOLOGIES}
    calls.update(CloudBuilder=CloudBuilder, TopologySpec=TopologySpec,
                 FlowPathSpec=FlowPathSpec, FlowSpec=FlowPathSpec)
    for name in ("SourceSpec", "poisson_source", "onoff_source", "transfer_source"):
        calls[name] = getattr(sources, name)
    return {**calls, **dict.fromkeys(_KEYWORDS_ONLY)}


def inputs() -> Set[str]:
    """Every input of a cloud, a scenario key under the name it spells."""
    from repro.experiments import scenario_dsl as dsl
    from repro.experiments.builder import CloudBuilder
    from repro.experiments.topospec import FlowPathSpec, TopologySpec

    keys = dsl._TOP_KEYS | dsl._FLOW_KEYS | dsl._SOURCE_KEYS | dsl._TOPOLOGY_KEYS
    return (
        set(inspect.signature(CloudBuilder.__init__).parameters) - {"self"}
        | {field.name for cls in (TopologySpec, FlowPathSpec) for field in dataclasses.fields(cls)}
        | {DSL_SPELLINGS.get(key, key) for key in keys}
    )


def _passed_on(name: str, value: ast.AST, params: Set[str]) -> bool:
    """A value handed on under its own name sets nothing: an attribute
    (``seed=self.seed``) or a parameter of an enclosing function."""
    if isinstance(value, ast.Attribute):
        return value.attr == name
    return isinstance(value, ast.Name) and value.id == name and name in params


def _plain(node: ast.AST, params: Set[str]):
    """A dict or list literal read as JSON would be (passed-on entries left
    out, a comprehension as its element); any other node as it is."""
    if isinstance(node, ast.Dict):
        return {
            key.value: _plain(value, params) for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and not _passed_on(key.value, value, params)
        }
    if isinstance(node, ast.ListComp):
        return [_plain(node.elt, params)]
    if isinstance(node, (ast.List, ast.Tuple)):
        return [_plain(elt, params) for elt in node.elts]
    return node


def _scenario_keys(scenario: dict) -> Set[str]:
    """The keys of a scenario's top level, ``"topology"``, flows and sources."""
    def section(value) -> dict:
        return value if isinstance(value, dict) else {}

    def entries(value) -> list:
        return value if isinstance(value, list) else []

    keys = set(scenario) | set(section(scenario.get("topology")))
    for flow in map(section, entries(scenario.get("flows"))):
        keys |= set(flow) | set(section(flow.get("source")))
    return keys


def _call_sets(node: ast.Call, calls: Dict[str, object], params: Set[str]) -> List[str]:
    """The parameters a call to one of ``calls`` sets, by position or
    keyword; a canned shape counts only when called on its class."""
    name = _name(node.func)
    if name not in calls or (
        isinstance(node.func, ast.Attribute) and name not in _KEYWORDS_ONLY
        and _name(node.func.value) not in ("TopologySpec", "cls")
    ):
        return []
    found = [kw.arg for kw in node.keywords if kw.arg and not _passed_on(kw.arg, kw.value, params)]
    if name not in _KEYWORDS_ONLY:
        positions = [
            param.name for param in inspect.signature(calls[name]).parameters.values()
            if param.kind is param.POSITIONAL_OR_KEYWORD and param.name not in ("self", "cls")
        ]
        for param, arg in zip(positions, node.args):
            if isinstance(arg, ast.Starred):
                break
            if not _passed_on(param, arg, params):
                found.append(param)
    return found


def set_inputs() -> Set[str]:
    """Inputs code outside ``tests/`` sets: an argument of a builder, spec
    or source constructor, a canned shape (a shape's own ``cls(...)`` is a
    ``TopologySpec`` call), ``add_flow`` or ``run``, or a key of a scenario
    (a dict literal or JSON file with ``"flows"``), a scenario key under the
    name it spells.  A value handed on under its own name sets nothing
    (:func:`_passed_on`), and neither does the scenario DSL: its tables
    list what it reads, and its calls pass on what a scenario sets."""
    from repro.experiments.topospec import TopologySpec

    found: Set[str] = set()

    def visit(node: ast.AST, calls: Dict[str, object], params: Set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = params | {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        if isinstance(node, ast.Call):
            found.update(_call_sets(node, calls, params))
        elif isinstance(node, ast.Dict):
            scenario = _plain(node, params)
            if "flows" in scenario:
                found.update(_scenario_keys(scenario))
        for child in ast.iter_child_nodes(node):
            visit(child, calls, params)

    calls = _input_calls()
    for source in SOURCES:
        if source.module == "repro.experiments.topospec":
            visit(source.tree, {**calls, "cls": TopologySpec}, set())
        elif source.module != "repro.experiments.scenario_dsl":
            visit(source.tree, calls, set())
    for scenario in SCENARIO_FILES:
        found.update(_scenario_keys(scenario))
    return {DSL_SPELLINGS.get(name, name) for name in found}


def test_every_input_is_set_outside_tests():
    from repro.experiments import scenario_dsl as dsl

    found = inputs() - set_inputs()
    assert sorted(found - set(INPUT_ALLOWLIST)) == [], (
        "inputs only tests set: delete each with the code it selects"
    )
    # The allowlist only shrinks: an entry that is set, or no input, goes.
    assert sorted(set(INPUT_ALLOWLIST) - found) == []
    assert all(reason.strip() for reason in INPUT_ALLOWLIST.values())
    # Each spelling names a key the DSL reads.
    assert set(DSL_SPELLINGS) <= dsl._TOP_KEYS | dsl._FLOW_KEYS
