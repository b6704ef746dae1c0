"""Deterministic random-number streams.

Every stochastic component (marker-cache sampling, selective feedback coin
flips, CSFQ drop decisions, workload jitter) draws from its own named
stream, derived deterministically from a single experiment seed.  Two runs
with the same seed are bit-identical regardless of which components exist
or the order in which they are created.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Union

__all__ = ["derive_seed", "RngRegistry", "RngSource"]

#: What a component that rarely draws takes in place of a stream: the
#: stream itself, or a zero-argument callable returning it (typically
#: ``partial(registry.stream, name)``) that the component calls at its
#: first draw.  The name, hence the derived seed, is the same either way;
#: a component that never draws never seeds a 2.5 KB Mersenne state.
RngSource = Union[random.Random, Callable[[], random.Random]]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``(root_seed, name)`` with a stable hash.

    This is the single seed-derivation rule of the whole codebase: the
    :class:`RngRegistry` uses it per stream, and the batch executor
    (:mod:`repro.experiments.parallel`) uses it per task, so a multi-seed
    sweep assigns exactly the same seed to task *i* whether the sweep runs
    serially, in 2 workers, or in 16.  The hash is SHA-256 (not Python's
    ``hash``, which is salted per process) truncated to 64 bits.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independently-seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed is derived from ``(registry seed, name)`` with a
        stable hash so that adding unrelated streams never perturbs
        existing ones.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.seed, name))
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
