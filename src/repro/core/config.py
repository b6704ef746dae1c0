"""Corelite configuration.

All constants named in the paper's evaluation (§4) are defaults here:
``K1 = 1``, ``alpha = beta = 1``, congestion threshold ``qthresh = 8``
packets, 100 ms epochs, slow-start threshold 32 pkt/s.  The buffer size
(40 packets) belongs to the topology (``TopologySpec.queue_capacity``).
Of the constants the paper leaves unspecified, only the ``Fn``
self-correction ``k`` is a field (the ABL-K ablation sweeps it); the
others (marker-cache size, the ``rav``/``wav`` running-average gains, the
initial slow-start rate, the linear detector's gain) are module constants
at their one reader, listed in docs/PARAMETERS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError

__all__ = ["FeedbackScheme", "EdgeConfig", "CoreliteConfig"]


class FeedbackScheme(Enum):
    """Which core-router marker selection mechanism to run.

    ``MARKER_CACHE`` is the paper's introductory mechanism (§2.2): a
    circular cache of recent markers sampled uniformly on congestion.
    ``SELECTIVE`` is the truly flow-stateless mechanism of §3.2 and the one
    used for the paper's evaluation; it throttles only flows whose
    normalized rate is at or above the running average.
    """

    MARKER_CACHE = "marker_cache"
    SELECTIVE = "selective"


@dataclass
class EdgeConfig:
    """What the edge of either scheme is configured by: the source agents'
    slow-start + LIMD constants.  The paper
    uses "similar rate adaptation schemes" for Corelite and CSFQ (§4), so
    :class:`CoreliteConfig` and :class:`repro.csfq.config.CsfqConfig` inherit
    these fields and :class:`repro.core.adaptation.RateController` reads
    nothing else.

    Attributes
    ----------
    alpha:
        Linear increase, in pkt/s added per edge epoch when a flow received
        no feedback ("increase the sending rate by one every epoch").
    beta:
        Rate decrease per congestion indication (a feedback marker, or a
        lost packet under CSFQ), in pkt/s (paper §4: ``beta = 1``).
    edge_epoch:
        Edge rate-adaptation period in seconds.  The paper fixes only the
        *core* epoch (100 ms); we default the edge epoch to 300 ms — about
        one round-trip time on the paper's topology, the natural control
        interval.  Much shorter epochs make the aggregate linear-increase
        pressure (``alpha * flows / edge_epoch``) outrun the feedback
        loop's authority and produce limit-cycle buffer overruns; the
        ABL-EPOCH ablation sweeps this.
    ss_thresh:
        Slow-start exit threshold in pkt/s (paper §4: 32): when the doubled
        rate exceeds it, the rate is halved and the flow goes linear.
    ss_double_interval:
        Slow-start doubling period in seconds (paper: "doubling the sending
        rate every second").
    min_rate:
        Floor on the allowed rate; the paper's ``max(0, ...)`` corresponds
        to ``0.0``.  A small positive floor keeps a fully throttled flow
        probing (its next increase re-opens the pacer anyway, so the
        default stays 0).
    max_rate:
        Optional administrative cap on any single flow's allowed rate.
    """

    alpha: float = 1.0
    beta: float = 1.0
    edge_epoch: float = 0.3
    ss_thresh: float = 32.0
    ss_double_interval: float = 1.0
    min_rate: float = 0.0
    max_rate: float = math.inf

    def __post_init__(self) -> None:
        self._require_positive(
            "alpha", "beta", "edge_epoch", "ss_thresh", "ss_double_interval",
            "max_rate",
        )
        if not 0.0 <= self.min_rate < math.inf:
            raise ConfigurationError(f"min_rate must be finite and >= 0, got {self.min_rate}")
        if self.min_rate > self.max_rate:
            raise ConfigurationError(
                f"min_rate ({self.min_rate}) exceeds max_rate ({self.max_rate})"
            )

    def _require_positive(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")


@dataclass
class CoreliteConfig(EdgeConfig):
    """Tunables for the Corelite edge and core mechanisms (the edge's
    adaptation and shaper fields are :class:`EdgeConfig`'s).

    Attributes
    ----------
    k1:
        Marker spacing constant: one marker per ``K1 * w`` data packets
        (paper §2.2; §4 uses ``K1 = 1``).
    core_epoch:
        Core congestion-detection period in seconds (paper §4: 100 ms).
    qthresh:
        Incipient-congestion threshold on the epoch-averaged queue length,
        in packets (paper §4: 8); it must lie below every Corelite link's
        buffer.
    fn_k:
        The "small but non-zero" self-correcting constant ``k`` multiplying
        ``(qavg - qthresh)^3`` in the ``Fn`` formula (§3.1).  ``0`` disables
        the correction term (ablated in ABL-K).
    feedback_scheme:
        Which marker-selection mechanism the core routers run.
    """

    k1: float = 1.0
    core_epoch: float = 0.1
    qthresh: float = 8.0
    fn_k: float = 0.02
    feedback_scheme: FeedbackScheme = FeedbackScheme.SELECTIVE
    #: Which congestion-detection formula the cores run: "mm1" (the
    #: paper's §3.1 M/M/1 + cubic) or "linear" (Fn = gain*(qavg-qthresh),
    #: the §3.1 "replaceable module" demonstration).
    congestion_estimator: str = "mm1"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive("k1", "core_epoch")
        for name, value in (("qthresh", self.qthresh), ("fn_k", self.fn_k)):
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        if self.congestion_estimator not in ("mm1", "linear"):
            raise ConfigurationError(
                f"congestion_estimator must be 'mm1' or 'linear', "
                f"got {self.congestion_estimator!r}"
            )
        if not isinstance(self.feedback_scheme, FeedbackScheme):
            raise ConfigurationError(
                f"feedback_scheme must be a FeedbackScheme, got {self.feedback_scheme!r}"
            )

    def marker_interval(self, weight: float) -> float:
        """``Nw = K1 * w``: data packets between consecutive markers."""
        if weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        return self.k1 * weight
