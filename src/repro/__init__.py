"""Corelite — per-flow weighted rate fairness in a core-stateless network.

This package reproduces the system described in "Achieving Per-Flow Weighted
Rate Fairness in a Core Stateless Network" (Sivakumar et al., ICDCS 2000):

* :mod:`repro.sim` — a discrete-event packet network simulator (the ns-2
  substitute): links with serialization and propagation delay, drop-tail FIFO
  queues, static shortest-path routing, monitors.
* :mod:`repro.core` — the Corelite mechanisms: edge shaping and marker
  injection, slow-start + weighted-LIMD rate adaptation, core incipient
  congestion detection, marker-cache and stateless selective feedback.
* :mod:`repro.csfq` — the weighted Core-Stateless Fair Queueing baseline.
* :mod:`repro.fairness` — weighted max-min reference allocations and
  fairness metrics.
* :mod:`repro.aqm` — related-work queue disciplines (RED, DECbit).
* :mod:`repro.experiments` — topologies, scenarios and runners that
  regenerate every figure in the paper's evaluation section.

Quickstart::

    from repro import CloudBuilder, TopologySpec, FlowSpec

    builder = CloudBuilder(TopologySpec.chain(2, capacity_pps=500.0), "corelite")
    builder.add_flow(FlowSpec(flow_id=1, weight=1.0))
    builder.add_flow(FlowSpec(flow_id=2, weight=2.0))
    result = builder.run(until=60.0)
    print(result.mean_rates(window=(40.0, 60.0)))

The public names below are imported lazily (PEP 562) so that
``import repro`` stays cheap and subpackages can be used independently.
"""

from repro._version import __version__

#: Public name -> defining module, resolved lazily on attribute access.
_EXPORTS = {
    "CoreliteConfig": "repro.core.config",
    "FeedbackScheme": "repro.core.config",
    "CsfqConfig": "repro.csfq.config",
    "CloudBuilder": "repro.experiments.builder",
    "TopologySpec": "repro.experiments.topospec",
    "FlowSpec": "repro.experiments.topospec",
    "RunResult": "repro.experiments.runner",
    "FlowDemand": "repro.fairness.maxmin",
    "weighted_maxmin": "repro.fairness.maxmin",
    "jain_index": "repro.fairness.metrics",
    "weighted_jain_index": "repro.fairness.metrics",
}

__all__ = ["__version__"] + sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
