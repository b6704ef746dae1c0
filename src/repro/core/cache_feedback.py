"""Marker-cache feedback selection (paper §2.2, step 2).

The core router copies every traversing marker into a circular *marker
cache*.  The cache holds the recent history of transmissions, so the
number of cached markers belonging to a flow is proportional to the flow's
normalized rate.  On incipient congestion the router draws the required
number of markers uniformly at random from the cache and echoes each to
the edge router that generated it — the expected feedback per flow is
therefore proportional to its normalized rate, with no per-flow state and
no inspection beyond the marker's return address.

The paper notes the cache "implicitly maintains some per-flow state"; the
truly stateless alternative is :mod:`repro.core.selective_feedback`.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RngSource

__all__ = ["MARKER_CACHE_SIZE", "MarkerCacheFeedback"]

#: Markers a core's cache holds per output link: chosen (the paper gives
#: no size); it bounds the cache variant's state (claim row STATE).
MARKER_CACHE_SIZE = 128

#: (flow_id, origin_edge, label) — everything needed to echo a marker.
CachedMarker = Tuple[int, str, float]

EmitFeedback = Callable[[int, str, float], None]


class MarkerCacheFeedback:
    """Circular cache of recent markers with uniform random selection."""

    def __init__(self, cache_size: int, rng: RngSource, emit: EmitFeedback) -> None:
        if cache_size < 1:
            raise ConfigurationError(f"cache size must be >= 1, got {cache_size}")
        self._cache: Deque[CachedMarker] = deque(maxlen=cache_size)
        if isinstance(rng, random.Random):
            self._rng, self._take_rng = rng, None
        else:
            self._rng, self._take_rng = None, rng
        self._emit = emit
        self.markers_seen = 0
        self.feedback_sent = 0

    @property
    def cache_size(self) -> int:
        return self._cache.maxlen or 0

    def __len__(self) -> int:
        return len(self._cache)

    def observe(
        self, flow_id: int, origin_edge: str, label: float, now: float, count: int = 1
    ) -> None:
        """Copy ``count`` traversing markers with one label (a train's
        piggybacked markers) into the cache, oldest entries evicted."""
        self.markers_seen += count
        self._cache.extend(((flow_id, origin_edge, label),) * count)

    def on_epoch(self, n_markers: int, now: float) -> int:
        """Congestion epoch boundary: echo ``n_markers`` random cache entries.

        Sampling is with replacement (a heavy flow can be throttled several
        times per epoch, as in the paper's Figure 2 where flow A receives
        twice flow B's feedback).  Returns the number actually sent, which
        is 0 when the cache is empty.
        """
        if n_markers < 0:
            raise ConfigurationError(f"n_markers must be >= 0, got {n_markers}")
        if n_markers == 0 or not self._cache:
            return 0
        if self._rng is None:
            self._rng = self._take_rng()
        for flow_id, origin_edge, label in self._rng.choices(self._cache, k=n_markers):
            self._emit(flow_id, origin_edge, label)
        self.feedback_sent += n_markers
        return n_markers

    def fold_epoch(self, count: int) -> None:
        """Replay an uncongested epoch boundary skipped while parked: a
        no-op, since ``on_epoch(0, now)`` never mutates the cache."""

    def flow_share(self, flow_id: int) -> float:
        """Fraction of cached markers belonging to ``flow_id`` (for tests)."""
        if not self._cache:
            return 0.0
        return sum(1 for entry in self._cache if entry[0] == flow_id) / len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MarkerCacheFeedback(cached={len(self._cache)}/{self.cache_size})"
