"""Output queues.

The paper's routers use plain FIFO scheduling with a finite drop-tail buffer
(40 packets in §4).  Congestion detection in Corelite needs the
*time-averaged* queue length over each congestion epoch (``qavg``), so the
queue integrates its occupancy over time and exposes
:meth:`FifoQueue.time_average`.

Occupancy counts only data-sized packets: Corelite markers are piggybacked
(size 0) and therefore consume neither buffer space nor bandwidth, exactly
as the paper assumes.  Markers do keep their FIFO position so that the
marker stream observed downstream preserves the interleaving of the flows.

A static drop-tail link never calls :meth:`FifoQueue.push` / ``pop``: it
fixes departure times at arrival and books this queue's occupancy and its
integral itself, each release of the buffer lazily (the "Hot path" notes
of :mod:`repro.sim.link`).  Every read here first asks that link
(``_port``) to settle, so what a reader sees is what a real queue would
show.  The one counter is ``stats.dropped_data``.  ``push`` / ``pop``
serve the links that need packet objects in a queue, and the disciplines
that override them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.errors import ConfigurationError
from repro.sim.packet import Packet

__all__ = ["QueueStats", "FifoQueue", "DropTailQueue"]


@dataclass
class QueueStats:
    """What a queue dropped over its lifetime (``Topology.total_drops``)."""

    dropped_data: int = 0


class FifoQueue:
    """Base FIFO queue with time-averaged occupancy tracking.

    Subclasses decide the admission policy by overriding :meth:`admit`.
    ``capacity`` is in data packets; packets of size 0 (markers) are always
    admitted and never counted toward occupancy.

    The base class uses ``__slots__`` (queues sit on the per-packet hot
    path); subclasses that declare extra attributes without their own
    ``__slots__`` simply fall back to a ``__dict__`` — nothing breaks.
    """

    __slots__ = (
        "capacity",
        "_items",
        "_occupancy",
        "stats",
        "_integral",
        "_last_time",
        "_window_start",
        "_port",
    )

    def __init__(self, capacity: float) -> None:
        if not capacity > 0:
            raise ConfigurationError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: Deque[Packet] = deque()
        self._occupancy = 0.0
        self.stats = QueueStats()
        # Occupancy-over-time integration for qavg.
        self._integral = 0.0
        self._last_time = 0.0
        self._window_start = 0.0
        #: The departure-time link serving this queue, if any.  Such a
        #: link books a waiting packet's release of the buffer lazily (see
        #: the "Hot path" notes in :mod:`repro.sim.link`), so every read
        #: below asks it to settle first.
        self._port = None

    def _sync(self, now: Optional[float] = None) -> None:
        """Have the serving link book every release that is due by ``now``."""
        if self._port is not None:
            self._port.settle(now)

    # -- time-average bookkeeping -------------------------------------

    def _advance(self, now: float) -> None:
        """Accumulate occupancy-time since the last change."""
        if now > self._last_time:
            self._integral += self._occupancy * (now - self._last_time)
            self._last_time = now

    def time_average(self, now: float) -> float:
        """Mean occupancy since the start of the current averaging window."""
        self._sync(now)
        self._advance(now)
        span = now - self._window_start
        if span <= 0.0:
            return self._occupancy
        return self._integral / span

    def reset_window(self, now: float) -> None:
        """Start a new averaging window (called once per congestion epoch)."""
        self._sync(now)
        self._advance(now)
        self._integral = 0.0
        self._window_start = now
        self._last_time = now

    def take_window_average(self, now: float) -> float:
        """:meth:`time_average` + :meth:`reset_window` in one call.

        The congestion-epoch hot path reads the window average and
        immediately opens the next window; fusing the two saves a second
        occupancy-integration pass per epoch per enabled link.
        """
        self._sync(now)
        integral = self._integral
        last = self._last_time
        if now > last:
            integral += self._occupancy * (now - last)
        span = now - self._window_start
        self._integral = 0.0
        self._window_start = now
        self._last_time = now
        if span <= 0.0:
            return self._occupancy
        return integral / span

    # -- admission ------------------------------------------------------

    def admit(self, packet: Packet, now: float) -> bool:
        """Decide whether a data-sized packet may enter the queue."""
        raise NotImplementedError

    # -- queue operations -------------------------------------------------

    def push(self, packet: Packet, now: float) -> bool:
        """Enqueue ``packet``; returns False if it was dropped."""
        if packet.size <= 0.0:
            self._items.append(packet)
            return True
        if not self.admit(packet, now):
            # ``packet.count`` is 1 for every plain packet; a PacketTrain
            # charges all its members in one step (size == count).
            self.stats.dropped_data += packet.count
            return False
        self._advance(now)
        self._items.append(packet)
        self._occupancy += packet.size
        return True

    def pop(self, now: float) -> Optional[Packet]:
        """Dequeue the head packet, or None if empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        if packet.size > 0.0:
            self._advance(now)
            self._occupancy -= packet.size
        return packet

    @property
    def occupancy(self) -> float:
        """Current buffered data, in data packets (markers excluded)."""
        self._sync()
        return self._occupancy

    def __len__(self) -> int:
        """Number of waiting packets: queued objects (markers included)
        plus the data packets a departure-time link has yet to start."""
        if self._port is None:
            return len(self._items)
        return len(self._items) + self._port.backlog()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(occupancy={self._occupancy:.1f}/"
            f"{self.capacity}, items={len(self._items)})"
        )


class DropTailQueue(FifoQueue):
    """The classic finite FIFO buffer: admit until full, then tail-drop."""

    __slots__ = ()

    def admit(self, packet: Packet, now: float) -> bool:
        return self._occupancy + packet.size <= self.capacity
