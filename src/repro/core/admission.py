"""Admission control for minimum rate contracts.

A contract is only meaningful if the network can honor it: the sum of
contracted floors crossing any link must stay within (a configured
fraction of) its capacity, or the floors themselves become the
congestion.  The paper's edges hold all per-flow state, so the natural
home of this check is an edge-side *bandwidth broker* that knows link
capacities and current reservations — the piece of Intserv bookkeeping
that survives in an edge-based architecture (cores remain stateless; they
never see reservations, only markers).

:class:`AdmissionController` implements exactly that: reserve-or-reject
per flow path, release on teardown.  ``Cloud.finalize()`` consults one for
every contracted flow.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError, FlowError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Reserve-or-reject bookkeeping for contracted floors."""

    def __init__(
        self, capacities: Mapping[str, float], utilization_bound: float = 0.9
    ) -> None:
        """``utilization_bound`` caps the contracted share of each link so
        best-effort traffic (and the contracts' own excess competition)
        always has headroom; 0.9 reserves at most 90% of any link."""
        if not 0.0 < utilization_bound <= 1.0:
            raise ConfigurationError(
                f"utilization_bound must be in (0, 1], got {utilization_bound}"
            )
        for link, capacity in capacities.items():
            if capacity <= 0:
                raise ConfigurationError(f"link {link!r}: capacity must be positive")
        self._capacities = dict(capacities)
        self.utilization_bound = utilization_bound
        self._reserved: Dict[str, float] = {link: 0.0 for link in capacities}
        self._contracts: Dict[object, Tuple[Tuple[str, ...], float]] = {}
        self.rejected = 0

    # -- queries ------------------------------------------------------------

    def reserved_on(self, link: str) -> float:
        """Total contracted rate currently reserved on ``link``."""
        try:
            return self._reserved[link]
        except KeyError:
            raise ConfigurationError(f"unknown link {link!r}") from None

    def headroom_on(self, link: str) -> float:
        """Contractable capacity remaining on ``link``."""
        limit = self._capacities[link] * self.utilization_bound
        return max(0.0, limit - self._reserved[link])

    def contract_of(self, flow_id: object) -> float:
        """The flow's reserved floor (0 if none)."""
        entry = self._contracts.get(flow_id)
        return entry[1] if entry else 0.0

    # -- reserve / release -------------------------------------------------

    def request(
        self, flow_id: object, path_links: Sequence[str], min_rate: float
    ) -> bool:
        """Try to reserve ``min_rate`` along ``path_links``.

        Atomic: either every link accepts or nothing is reserved.
        Returns False (and counts a rejection) when some link lacks
        headroom.
        """
        if flow_id in self._contracts:
            raise FlowError(f"flow {flow_id!r} already holds a contract")
        if min_rate <= 0:
            raise ConfigurationError(f"min_rate must be positive, got {min_rate}")
        for link in path_links:
            if link not in self._capacities:
                raise ConfigurationError(f"unknown link {link!r}")
        for link in path_links:
            if min_rate > self.headroom_on(link):
                self.rejected += 1
                return False
        for link in path_links:
            self._reserved[link] += min_rate
        self._contracts[flow_id] = (tuple(path_links), min_rate)
        return True

    def release(self, flow_id: object) -> float:
        """Tear down a contract; returns the freed rate."""
        try:
            path_links, min_rate = self._contracts.pop(flow_id)
        except KeyError:
            raise FlowError(f"flow {flow_id!r} holds no contract") from None
        for link in path_links:
            self._reserved[link] = max(0.0, self._reserved[link] - min_rate)
        return min_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(contracts={len(self._contracts)}, "
            f"rejected={self.rejected})"
        )
