"""Discrete-event packet network simulator (the ns-2 substitute).

The simulator is deliberately small and fast: a binary-heap event loop
(:mod:`repro.sim.engine`), packets as slotted objects
(:mod:`repro.sim.packet`), unidirectional links with serialization and
propagation delay (:mod:`repro.sim.link`), drop-tail FIFO queues with
time-averaged occupancy tracking (:mod:`repro.sim.queues`), nodes and static
shortest-path routing (:mod:`repro.sim.node`, :mod:`repro.sim.routing`,
:mod:`repro.sim.topology`), a propagation-delay control plane for feedback
packets (:mod:`repro.sim.control`) and measurement helpers
(:mod:`repro.sim.monitor`).
"""

from repro.sim.control import ControlPlane
from repro.sim.engine import EventHandle, PeriodicTask, Simulator
from repro.sim.link import Link
from repro.sim.monitor import Series, ThroughputMeter
from repro.sim.node import Node, Router
from repro.sim.packet import Packet, PacketKind
from repro.sim.queues import DropTailQueue, QueueStats
from repro.sim.rng import RngRegistry
from repro.sim.routing import shortest_paths
from repro.sim.topology import Topology

__all__ = [
    "Simulator",
    "EventHandle",
    "PeriodicTask",
    "Packet",
    "PacketKind",
    "DropTailQueue",
    "QueueStats",
    "Link",
    "Node",
    "Router",
    "Topology",
    "ControlPlane",
    "shortest_paths",
    "RngRegistry",
    "Series",
    "ThroughputMeter",
]
