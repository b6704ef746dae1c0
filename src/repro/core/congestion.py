"""Incipient congestion detection at the core (paper §3.1).

Once per congestion epoch the core router compares the epoch's
time-averaged queue length ``qavg`` of each output link against
``qthresh``.  On incipient congestion it computes how many feedback
markers to return::

    Fn = mu * ( qavg/(1+qavg) - qthresh/(1+qthresh) )  +  k * (qavg - qthresh)^3

with ``mu`` the link service rate in packets per congestion epoch.  The
first term is the input-rate reduction needed to bring an M/M/1 queue's
average occupancy from ``qavg`` down to ``qthresh`` (rho = q/(1+q)); the
cubic term is the self-correcting factor: the M/M/1 term saturates at
``mu`` as ``qavg`` grows, so without ``k > 0`` a persistently wrong traffic
model lets the queue build until packets drop, while even a small ``k``
makes the marker count grow without bound in the backlog and keeps the
buffer from overflowing.

``Fn`` is generally fractional; the estimator carries the remainder to the
next congested epoch so the long-run marker count matches the formula
exactly.
"""

from __future__ import annotations

from repro.core.config import CoreliteConfig
from repro.errors import ConfigurationError

__all__ = [
    "CongestionDetector",
    "Mm1CongestionEstimator",
    "LinearCongestionEstimator",
    "make_estimator",
]

#: Markers per excess packet of :class:`LinearCongestionEstimator`:
#: chosen (the linear detector is ours, not the paper's).
LINEAR_GAIN = 1.0


class CongestionDetector:
    """Base epoch congestion detector.

    §3.1 states "the congestion estimation module can be replaced with no
    impact on the rest of the Corelite mechanisms": subclasses only
    implement :meth:`fn` (the raw marker-count formula); the
    carry/accounting machinery and the router interface are shared.
    """

    __slots__ = ("config", "service_rate_pps", "_carry", "congested_epochs", "markers_requested")

    def __init__(self, config: CoreliteConfig, service_rate_pps: float) -> None:
        if service_rate_pps <= 0:
            raise ConfigurationError(
                f"service rate must be positive, got {service_rate_pps}"
            )
        self.config = config
        self.service_rate_pps = service_rate_pps
        self._carry = 0.0
        self.congested_epochs = 0
        self.markers_requested = 0

    def fn(self, qavg: float) -> float:
        """The raw ``Fn`` value for an epoch-average queue of ``qavg``.

        Must return 0.0 when ``qavg <= qthresh`` (no incipient congestion).
        """
        raise NotImplementedError

    def markers_for_epoch(self, qavg: float) -> int:
        """Whole number of markers to send this epoch (with carry).

        The fractional remainder of ``Fn`` is carried into the next
        *congested* epoch; detecting no congestion clears the carry (the
        backlog the fraction was meant to drain is gone).
        """
        value = self.fn(qavg)
        if value <= 0.0:
            self._carry = 0.0
            return 0
        self.congested_epochs += 1
        total = value + self._carry
        whole = int(total)
        self._carry = total - whole
        self.markers_requested += whole
        return whole

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(qthresh={self.config.qthresh}, "
            f"epochs_congested={self.congested_epochs})"
        )


class Mm1CongestionEstimator(CongestionDetector):
    """The paper's §3.1 formula: M/M/1 term plus cubic self-correction."""

    __slots__ = ()

    def fn(self, qavg: float) -> float:
        if qavg < 0:
            raise ConfigurationError(f"qavg must be >= 0, got {qavg}")
        cfg = self.config
        if qavg <= cfg.qthresh:
            return 0.0
        mu = self.service_rate_pps * cfg.core_epoch  # packets per epoch
        mm1_term = mu * (qavg / (1.0 + qavg) - cfg.qthresh / (1.0 + cfg.qthresh))
        correction = cfg.fn_k * (qavg - cfg.qthresh) ** 3
        return max(0.0, mm1_term + correction)


class LinearCongestionEstimator(CongestionDetector):
    """A drop-in replacement detector: markers linear in the excess queue.

    ``Fn = LINEAR_GAIN * (qavg - qthresh)`` — no traffic model at all.  Exists to
    demonstrate §3.1's modularity claim: swapping the estimator leaves
    shaping, marking, selection and adaptation untouched, and the system
    still converges to weighted fairness (ABL-ESTIMATOR), with somewhat
    different queue dynamics.
    """

    __slots__ = ()

    def fn(self, qavg: float) -> float:
        if qavg < 0:
            raise ConfigurationError(f"qavg must be >= 0, got {qavg}")
        cfg = self.config
        if qavg <= cfg.qthresh:
            return 0.0
        return LINEAR_GAIN * (qavg - cfg.qthresh)


_ESTIMATORS = {
    "mm1": Mm1CongestionEstimator,
    "linear": LinearCongestionEstimator,
}


def make_estimator(config: CoreliteConfig, service_rate_pps: float) -> CongestionDetector:
    """Build the detector named by ``config.congestion_estimator``."""
    try:
        cls = _ESTIMATORS[config.congestion_estimator]
    except KeyError:
        raise ConfigurationError(
            f"unknown congestion estimator {config.congestion_estimator!r}; "
            f"pick one of {sorted(_ESTIMATORS)}"
        ) from None
    return cls(config, service_rate_pps)
