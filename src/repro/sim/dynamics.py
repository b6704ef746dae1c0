"""Scheduled topology dynamics: link failure, recovery and rerouting.

Every scenario before this module ran on a static graph.  A
:class:`NetworkEvent` schedule makes the graph itself part of the
workload: at a declared simulation time a duplex link goes down (both
directions fail atomically) or comes back up, and the forwarding tables
are recomputed against the live adjacency.  This is the churn regime the
paper leaves open — does edge-to-edge feedback re-converge to weighted
fairness when the paths under it move?

Determinism contract (replays must stay byte-identical):

* Events are scheduled through :meth:`Simulator.schedule_at`, so two
  events at the same timestamp execute in *declaration order* (the
  engine breaks ties by insertion sequence).
* Packets in flight on a failed link are stranded by a generation check
  (:meth:`repro.sim.link.Link.fail` bumps the link's generation; the
  delivery closure captured the old one), so the drop decision depends
  only on send/fail ordering — never on wall-clock races or on whether
  the link recovered before the delivery event fired.
* Route recomputation is a full deterministic Dijkstra re-run over the
  surviving adjacency followed by an atomic table swap
  (:meth:`repro.sim.topology.Topology.rebuild_routes`), at the event's own
  instant; no packet ever sees a half-updated table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.topology import Topology

__all__ = ["EVENT_KINDS", "NetworkEvent", "NetworkDynamics"]

#: Event kinds understood by the schedule executor.
EVENT_KINDS = ("link_down", "link_up")


@dataclass(frozen=True)
class NetworkEvent:
    """One scheduled topology change: a duplex link goes down or up.

    Attributes
    ----------
    time:
        Simulation time (seconds, >= 0) at which the event executes.
    kind:
        ``"link_down"`` or ``"link_up"``.
    a / b:
        The two endpoints of the duplex link, in either order (both
        unidirectional halves change state together).
    """

    time: float
    kind: str
    a: str
    b: str

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"network event: unknown kind {self.kind!r} "
                f"(known: {list(EVENT_KINDS)})"
            )
        if not (self.time >= 0.0):
            raise ConfigurationError(
                f"network event {self.kind!r}: time must be >= 0, "
                f"got {self.time!r}"
            )
        for end, name in (("a", self.a), ("b", self.b)):
            if not name or not isinstance(name, str):
                raise ConfigurationError(
                    f"network event {self.kind!r}: end {end!r} must be a "
                    f"non-empty node name, got {name!r}"
                )
        if self.a == self.b:
            raise ConfigurationError(
                f"network event {self.kind!r}: endpoints must differ "
                f"(both are {self.a!r})"
            )

    @property
    def pair(self) -> Tuple[str, str]:
        """The duplex link's endpoints as a sorted, order-free key."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "NetworkEvent":
        """Build from ``{"time": t, "kind": k, "link": [a, b]}`` through the
        scenario DSL's typed reader
        (:func:`repro.experiments.scenario_dsl.parse_event`)."""
        from repro.experiments.scenario_dsl import parse_event

        return parse_event(raw)

    def to_dict(self) -> Dict:
        return {"time": self.time, "kind": self.kind, "link": [self.a, self.b]}


class NetworkDynamics:
    """Executes a :class:`NetworkEvent` schedule against a live topology.

    Binds each event to the pair of unidirectional :class:`Link` objects
    of its duplex link at construction time (unknown links fail fast,
    before any simulation runs) and arms every link that appears in the
    schedule for dynamics (generation-checked deliveries).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        events: Sequence[NetworkEvent],
        control=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.control = control
        self.events: Tuple[NetworkEvent, ...] = tuple(events)
        #: Executed events as ``(fire_time, event)`` in execution order.
        self.applied: List[Tuple[float, NetworkEvent]] = []
        self._links_for: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        for event in self.events:
            if event.pair in self._links_for:
                continue
            members = tuple(
                link
                for link in topology.links.values()
                if {link.src_name, link.dst.name} == {event.a, event.b}
            )
            if not members:
                raise TopologyError(
                    f"network event at t={event.time:g}: no link between "
                    f"{event.a!r} and {event.b!r} in the topology"
                )
            for link in members:
                link.enable_dynamics()
            self._links_for[event.pair] = members

    def schedule(self, until: float) -> None:
        """Arm every event with ``time <= until`` on the simulator."""
        for event in self.events:
            if event.time <= until:
                # No shaper release runs past the event and its reroute.
                self.sim.add_fence(event.time)
                self.sim.schedule_at(event.time, self._execute, event)

    # -- execution -------------------------------------------------------

    def _execute(self, event: NetworkEvent) -> None:
        links = self._links_for[event.pair]
        if event.kind == "link_down":
            for link in links:
                link.fail()
        else:
            for link in links:
                link.recover()
        self.applied.append((self.sim.now, event))
        self.topology.rebuild_routes()
        if self.control is not None:
            self.control.invalidate_paths()

    # -- accounting ------------------------------------------------------

    def failure_drops(self) -> int:
        """Data packets dropped by link failures so far (queued + sent
        while down + stranded in flight), across the whole topology."""
        return sum(
            link.failure_drops + link.inflight_drops
            for link in self.topology.links.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkDynamics(events={len(self.events)}, "
            f"applied={len(self.applied)})"
        )
