"""Span tracer and the outside-in patches that feed it.

The simulator has no tracing hooks of its own, so the traced run installs
timing wrappers — from this file, before the cloud is built, removed
after — on the public functions at each layer boundary, and wraps every
callback handed to the engine's scheduling calls so each dispatched event
is attributed to the module that owns it.

A span is ``(layer, op, parent layer, start, end)``.  Spans nest strictly
(the simulator is single-threaded), so a stack is enough: a layer's
*self* time is its spans' duration minus the part covered by child spans.
Aggregates are kept in memory as count / total / self per
``(layer, op, parent layer)``; the first :data:`RAW_SPANS` raw spans are
kept too.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = [
    "Tracer",
    "tracing",
    "between",
    "total",
    "count",
    "self_time",
    "dispatched",
    "RAW_SPANS",
]

#: (layer, op, parent layer) -> [count, total seconds, self seconds]
Aggregates = Dict[Tuple[str, str, str], List[float]]

#: Raw spans kept verbatim (the aggregates cover every span).
RAW_SPANS = 10_000

#: Module -> layer name.  Modules not listed are their own layer, named
#: by dropping the ``repro.`` prefix.
_LAYER_OF_MODULE = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.link": "sim.link",
    "repro.sim.control": "sim.control",
    "repro.core.edge": "core.edge",
    # The paced shaper serves Corelite and CSFQ edges alike, so it is a
    # layer of its own rather than part of either edge.
    "repro.core.shaping": "core.shaping",
    "repro.core.router": "core.router",
    "repro.csfq.edge": "csfq.edge",
    "repro.csfq.router": "csfq.router",
    "repro.experiments.builder": "experiments.builder",
    "repro.experiments.pdes": "experiments.pdes",
}


def layer_of_module(module: str) -> str:
    layer = _LAYER_OF_MODULE.get(module)
    if layer is None:
        layer = module[6:] if module.startswith("repro.") else module
        _LAYER_OF_MODULE[module] = layer
    return layer


def _owner(fn: Callable[..., Any]) -> Tuple[str, str]:
    """``(layer, op)`` of a callback: the module of the object a bound
    method belongs to, else the module the function was defined in."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    module = type(owner).__module__ if owner is not None else fn.__module__
    return layer_of_module(module), getattr(fn, "__name__", type(fn).__name__)


class Tracer:
    """In-memory span recorder (one per traced run)."""

    def __init__(self, keep_raw: int = RAW_SPANS) -> None:
        self.agg: Aggregates = {}
        #: First ``keep_raw`` spans: (layer, op, parent layer, start, end).
        self.raw: List[Tuple[str, str, str, float, float]] = []
        self._keep_raw = keep_raw
        #: Open spans, innermost last: [layer, seconds covered by children].
        self._stack: List[List[Any]] = []

    def span(self, layer: str, op: str, fn: Callable[..., Any], *args: Any, **kwargs: Any):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                parent = stack[-1]
                parent[1] += duration
                parent_layer = parent[0]
            else:
                parent_layer = ""
            key = (layer, op, parent_layer)
            entry = self.agg.get(key)
            if entry is None:
                self.agg[key] = [1, duration, duration - frame[1]]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if len(self.raw) < self._keep_raw:
                self.raw.append((layer, op, parent_layer, start, end))

    def dispatch(self, fn: Callable[..., Any], *args: Any) -> None:
        """Engine-side trampoline: the span of one dispatched callback."""
        layer, op = _owner(fn)
        self.span(layer, op, fn, *args)

    def snapshot(self) -> "Aggregates":
        """A copy of the aggregates so far (see :func:`between`)."""
        return {key: list(value) for key, value in self.agg.items()}

    def to_json(self) -> Dict[str, Any]:
        """The ``trace_<workload>.json`` payload."""
        t0 = self.raw[0][3] if self.raw else 0.0
        return {
            "aggregates": [
                {
                    "layer": layer,
                    "op": op,
                    "parent": parent,
                    "count": int(v[0]),
                    "total_s": v[1],
                    "self_s": v[2],
                }
                for (layer, op, parent), v in sorted(self.agg.items())
            ],
            "raw_spans_kept": len(self.raw),
            "raw_spans": [
                [layer, op, parent, start - t0, end - t0]
                for layer, op, parent, start, end in self.raw
            ],
        }


def between(after: Aggregates, before: Aggregates) -> Aggregates:
    """Aggregates of the spans that closed between two snapshots."""
    out: Aggregates = {}
    for key, value in after.items():
        base = before.get(key, (0, 0.0, 0.0))
        if value[0] != base[0]:
            out[key] = [value[0] - base[0], value[1] - base[1], value[2] - base[2]]
    return out


def total(agg: Aggregates, layer: str, op: str) -> float:
    """Seconds inside ``layer``'s ``op`` spans (children included)."""
    return sum(v[1] for k, v in agg.items() if k[0] == layer and k[1] == op)


def count(agg: Aggregates, layer: str, op: str) -> int:
    return int(sum(v[0] for k, v in agg.items() if k[0] == layer and k[1] == op))


def self_time(agg: Aggregates, layer: str, op: str = "") -> float:
    """Seconds in ``layer`` (one ``op`` of it, if given) not covered by child spans."""
    return sum(
        v[2] for k, v in agg.items() if k[0] == layer and (not op or k[1] == op)
    )


def dispatched(agg: Aggregates, layer: str) -> int:
    """Callbacks of ``layer`` run by the engine.  Their parent is the engine;
    a direct call always has the calling callback's layer as parent."""
    return int(
        sum(
            v[0]
            for k, v in agg.items()
            if k[0] == layer and k[2] == "sim.engine" and k[1] != "run"
        )
    )


def _spanned(tracer: Tracer, layer: str, op: str, original: Callable[..., Any]):
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any):
        return tracer.span(layer, op, original, *args, **kwargs)

    return wrapper


def _wrap_instance(tracer: Tracer, obj: Any, name: str, layer: str, undo: List) -> None:
    """Wrap an entry point that is looked up on the instance (``Link.send``
    is a rebindable slot; a started PDES session is only reachable as an
    object)."""
    original = getattr(obj, name)
    setattr(obj, name, _spanned(tracer, layer, name, original))
    undo.append((obj, name, original))


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the ``with`` block."""
    from repro.core.edge import CoreliteEdge
    from repro.core.router import CoreliteCoreRouter
    from repro.csfq.edge import CsfqEdge
    from repro.csfq.router import CsfqCoreRouter
    from repro.experiments.builder import Cloud, CloudBuilder
    from repro.experiments.pdes import ParallelCloud
    from repro.sim.control import ControlPlane
    from repro.sim.engine import Simulator

    class_undo: List[Tuple[type, str, Any]] = []
    instance_undo: List[Tuple[Any, str, Any]] = []
    finalized: List[Any] = []

    def patch(cls: type, name: str, replacement: Callable[..., Any]) -> None:
        class_undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def patch_span(cls: type, name: str, layer: str, op: str = "") -> None:
        patch(cls, name, _spanned(tracer, layer, op or name, cls.__dict__[name]))

    dispatch = tracer.dispatch

    # Engine: time the run loop, and route every scheduled callback through
    # the trampoline (the callback becomes the first argument, so no closure
    # is allocated per event).
    patch_span(Simulator, "run", "sim.engine")
    for name in ("schedule", "schedule_at", "schedule_fast", "schedule_at_fast", "inject"):
        original = Simulator.__dict__[name]

        def scheduling(sim, when, fn, *args, _original=original):
            return _original(sim, when, dispatch, fn, *args)

        patch(Simulator, name, functools.wraps(original)(scheduling))

    original_reschedule = Simulator.__dict__["reschedule"]

    @functools.wraps(original_reschedule)
    def reschedule(sim, delay, fn, handle, *args):
        return original_reschedule(sim, delay, dispatch, handle, fn, *args)

    patch(Simulator, "reschedule", reschedule)

    original_every = Simulator.__dict__["every"]

    @functools.wraps(original_every)
    def every(sim, interval, fn, *args, **kwargs):
        return original_every(sim, interval, functools.partial(dispatch, fn), *args, **kwargs)

    patch(Simulator, "every", every)

    # Layer-boundary entry points reached by direct calls.
    patch_span(CoreliteEdge, "receive", "core.edge")
    patch_span(CoreliteEdge, "receive_feedback", "core.edge")
    patch_span(CoreliteCoreRouter, "receive", "core.router")
    patch_span(CsfqEdge, "receive", "csfq.edge")
    patch_span(CsfqEdge, "receive_loss_notify", "csfq.edge")
    patch_span(CsfqCoreRouter, "receive", "csfq.router")
    patch_span(ControlPlane, "send", "sim.control")
    patch_span(CloudBuilder, "build", "experiments.builder")
    patch_span(CloudBuilder, "build_parallel", "experiments.builder", "build")
    patch_span(Cloud, "run", "experiments.builder")
    patch_span(Cloud, "reference_rates", "fairness")
    patch_span(ParallelCloud, "execute", "experiments.pdes")

    # ``Link.send`` is rebound per instance while the cloud is finalized
    # (taps, plain-FIFO bypass), so it is wrapped once finalize has settled.
    original_finalize = Cloud.__dict__["finalize"]

    @functools.wraps(original_finalize)
    def finalize(cloud):
        tracer.span("experiments.builder", "finalize", original_finalize, cloud)
        if not any(cloud is seen for seen in finalized):
            finalized.append(cloud)
            for link in cloud.topology.links.values():
                _wrap_instance(tracer, link, "send", "sim.link", instance_undo)

    patch(Cloud, "finalize", finalize)

    original_start = ParallelCloud.__dict__["start"]

    @functools.wraps(original_start)
    def start(parallel):
        session = tracer.span("experiments.pdes", "start", original_start, parallel)
        _wrap_instance(tracer, session, "windows", "experiments.pdes", instance_undo)
        _wrap_instance(tracer, session, "finish", "experiments.pdes", instance_undo)
        return session

    patch(ParallelCloud, "start", start)

    try:
        yield tracer
    finally:
        for cls, name, original in reversed(class_undo):
            setattr(cls, name, original)
        for obj, name, original in reversed(instance_undo):
            setattr(obj, name, original)
