"""Exception hierarchy for the Corelite reproduction package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package-level failures with a
single ``except`` clause while letting programming errors propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """An inconsistency was detected while running the event loop."""


class FenceError(SimulationError):
    """A change to a releasing shaper that no ``Simulator.add_fence`` announced
    before the shaper released past it (links change only before traffic flows)."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class TopologyError(ReproError):
    """The network topology is malformed (unknown node, no route, ...)."""


class RoutingError(TopologyError):
    """No route exists between two nodes that need to communicate."""


class FlowError(ReproError):
    """A flow was declared or scheduled inconsistently."""
