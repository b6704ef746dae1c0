"""Traffic source models.

The paper's evaluation uses always-backlogged sources ("we assume that
the flows always have packets to send", §4), but two of its robustness
claims are about traffic *pattern*: the ``Fn`` congestion formula "works
reasonably well even if the Poisson traffic assumptions do not hold"
(§3.1), and the cache-based feedback is "fairly insensitive to bursty
flows" (§2.2).  These models generate the corresponding offered load:

* :class:`BackloggedSource` — the default; the edge shaper always has a
  packet to send (no deposits needed, represented by ``None`` backlog).
* :class:`PoissonSource` — packet arrivals with exponential gaps at a
  mean rate (the §3.1 modeling assumption made literal).
* :class:`OnOffSource` — exponentially distributed ON/OFF periods with a
  fixed peak rate during ON: the classic bursty source.

A source deposits packets into the ingress edge's per-flow backlog; the
edge's paced shaper then drains the backlog at the flow's allowed rate
``bg(f)``, exactly as the paper's edge "shapes the flow's traffic".
Declarative :class:`SourceSpec` values are what experiment code puts in a
``FlowSpec``; the ``Cloud`` builds and drives the live model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

__all__ = [
    "SourceModel",
    "BackloggedSource",
    "PoissonSource",
    "OnOffSource",
    "FiniteTransferSource",
    "SourceSpec",
    "BACKLOGGED",
    "poisson_source",
    "onoff_source",
    "transfer_source",
]

Deposit = Callable[[int], None]


class SourceModel:
    """Base class: a process that deposits packets into an edge backlog.

    Sources stop via the ``_running`` flag rather than cancelling events,
    so subclasses schedule with the engine's no-handle fast path.
    """

    def __init__(self) -> None:
        self._sim: Optional[Simulator] = None
        self._deposit: Optional[Deposit] = None
        self._rng: Optional[random.Random] = None
        self._running = False
        self.packets_offered = 0

    def start(self, sim: Simulator, deposit: Deposit, rng: random.Random) -> None:
        """Begin generating; idempotent while running."""
        if self._running:
            return
        self._sim = sim
        self._deposit = deposit
        self._rng = rng
        self._running = True
        self._begin()

    def stop(self) -> None:
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def _offer(self, n: int = 1) -> None:
        assert self._deposit is not None
        self.packets_offered += n
        self._deposit(n)

    def _begin(self) -> None:
        raise NotImplementedError


class BackloggedSource(SourceModel):
    """Infinite backlog: nothing to generate; the shaper is never idle."""

    def _begin(self) -> None:  # pragma: no cover - trivial
        return None


class PoissonSource(SourceModel):
    """Packet arrivals with i.i.d. exponential inter-arrival times."""

    def __init__(self, mean_rate: float) -> None:
        super().__init__()
        if mean_rate <= 0:
            raise ConfigurationError(f"mean_rate must be positive, got {mean_rate}")
        self.mean_rate = mean_rate

    def _begin(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        assert self._sim is not None and self._rng is not None
        gap = self._rng.expovariate(self.mean_rate)
        self._sim.schedule_fast(gap, self._arrive)

    def _arrive(self) -> None:
        if not self._running:
            return
        self._offer(1)
        self._schedule_next()


class OnOffSource(SourceModel):
    """Exponential ON/OFF periods, constant peak rate while ON.

    Mean offered rate = ``peak_rate * mean_on / (mean_on + mean_off)``.
    """

    def __init__(self, peak_rate: float, mean_on: float, mean_off: float) -> None:
        super().__init__()
        for name, value in (
            ("peak_rate", peak_rate),
            ("mean_on", mean_on),
            ("mean_off", mean_off),
        ):
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        self.peak_rate = peak_rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._on_until = 0.0

    @property
    def mean_rate(self) -> float:
        return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)

    def _begin(self) -> None:
        self._enter_on()

    def _enter_on(self) -> None:
        if not self._running:
            return
        assert self._sim is not None and self._rng is not None
        duration = self._rng.expovariate(1.0 / self.mean_on)
        self._on_until = self._sim.now + duration
        self._emit_burst_packet()

    def _emit_burst_packet(self) -> None:
        if not self._running:
            return
        assert self._sim is not None and self._rng is not None
        if self._sim.now >= self._on_until:
            off = self._rng.expovariate(1.0 / self.mean_off)
            self._sim.schedule_fast(off, self._enter_on)
            return
        self._offer(1)
        self._sim.schedule_fast(1.0 / self.peak_rate, self._emit_burst_packet)


class FiniteTransferSource(SourceModel):
    """A fixed-size transfer: ``total`` packets offered at ``peak_rate``.

    Models short flows (web transfers): the flow is backlogged while the
    transfer lasts and silent afterwards — the regime where the paper's
    §4.3 argues CSFQ penalizes short-lived flows.
    """

    def __init__(self, total: int, peak_rate: float) -> None:
        super().__init__()
        if total < 1:
            raise ConfigurationError(f"total must be >= 1 packet, got {total}")
        if peak_rate <= 0:
            raise ConfigurationError(f"peak_rate must be positive, got {peak_rate}")
        self.total = total
        self.peak_rate = peak_rate
        self.remaining = total

    @property
    def finished(self) -> bool:
        return self.remaining <= 0

    def _begin(self) -> None:
        self._next()

    def _next(self) -> None:
        if not self._running or self.remaining <= 0:
            return
        self._offer(1)
        self.remaining -= 1
        if self.remaining > 0:
            assert self._sim is not None
            self._sim.schedule_fast(1.0 / self.peak_rate, self._next)


#: Source kind -> the fields it reads.
_READS = {
    "backlogged": (),
    "poisson": ("mean_rate",),
    "onoff": ("peak_rate", "mean_on", "mean_off"),
    "transfer": ("total_packets", "peak_rate"),
}


@dataclass(frozen=True)
class SourceSpec:
    """Declarative source description carried by a ``FlowSpec``."""

    kind: str  # "backlogged" | "poisson" | "onoff" | "transfer"
    mean_rate: float = 0.0
    peak_rate: float = 0.0
    mean_on: float = 0.0
    mean_off: float = 0.0
    total_packets: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _READS:
            raise ConfigurationError(f"unknown source kind {self.kind!r}")
        for name in _READS[self.kind]:
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ConfigurationError(
                    f"{self.kind} source: {name} must be finite and > 0, got {value!r}"
                )

    @property
    def is_backlogged(self) -> bool:
        return self.kind == "backlogged"

    def offered_rate(self) -> float:
        """Mean offered load in pkt/s (inf for a backlogged source).

        A finite transfer is backlogged while it lasts, so its demand for
        the max-min expectation is its peak rate.
        """
        if self.kind == "poisson":
            return self.mean_rate
        if self.kind == "onoff":
            return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)
        if self.kind == "transfer":
            return self.peak_rate
        return float("inf")

    def build(self) -> SourceModel:
        if self.kind == "poisson":
            return PoissonSource(self.mean_rate)
        if self.kind == "onoff":
            return OnOffSource(self.peak_rate, self.mean_on, self.mean_off)
        if self.kind == "transfer":
            return FiniteTransferSource(self.total_packets, self.peak_rate)
        return BackloggedSource()


#: The paper's default source.
BACKLOGGED = SourceSpec("backlogged")


def poisson_source(mean_rate: float) -> SourceSpec:
    """A Poisson source offering ``mean_rate`` pkt/s on average."""
    return SourceSpec("poisson", mean_rate=mean_rate)


def onoff_source(peak_rate: float, mean_on: float, mean_off: float) -> SourceSpec:
    """A bursty ON/OFF source."""
    return SourceSpec("onoff", peak_rate=peak_rate, mean_on=mean_on, mean_off=mean_off)


def transfer_source(total_packets: int, peak_rate: float) -> SourceSpec:
    """A finite transfer of ``total_packets`` offered at ``peak_rate``."""
    FiniteTransferSource(total_packets, peak_rate)  # eager validation
    return SourceSpec("transfer", peak_rate=peak_rate, total_packets=total_packets)
