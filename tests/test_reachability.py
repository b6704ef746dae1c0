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
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONSUMER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Modules that need no importer: ``python -m repro`` runs ``__main__``.
ENTRY_MODULES = {"repro.__main__"}

_THEORY = "ROADMAP item 3 (operating envelope) overlays the control-loop theory"
_FLUID = "ROADMAP item 3 overlays the fluid LIMD trajectory on its sweep"

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
    "shaper_burst": "DESIGN.md S19: token-bucket depth; 1 is the paper's pure pacing",
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
    for top in CONSUMER_DIRS:
        for path in sorted(top.rglob("*.json")):
            scenario = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(scenario, dict) and "flows" in scenario:
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
