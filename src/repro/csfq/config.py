"""CSFQ configuration.

The paper's §4 sets ``K`` (flow rate estimation) and ``Klink`` (the window
for the aggregate rate / fair share computation) to 100 ms, the same
40-packet buffers, and source agents with the same adaptation constants as
Corelite's: those, the shaper and the buffer size are the inherited
:class:`repro.core.config.EdgeConfig`, which is all the shared
:class:`repro.core.adaptation.RateController` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import EdgeConfig
from repro.errors import ConfigurationError

__all__ = ["CsfqConfig"]


@dataclass
class CsfqConfig(EdgeConfig):
    """Tunables for the weighted CSFQ baseline, on top of :class:`EdgeConfig`.

    Attributes
    ----------
    k_flow:
        Averaging constant ``K`` of the per-flow exponential rate estimator
        at the ingress edge, seconds.
    k_alpha:
        Averaging constant for the core's aggregate arrival (``A``) and
        accepted (``F``) rate estimators, seconds.
    k_window:
        ``Klink``: the window after which the fair share ``alpha`` is
        updated (congested: ``alpha *= C/F``; uncongested: ``alpha`` is the
        max label seen), seconds.
    overflow_alpha_decay:
        Multiplicative penalty applied to ``alpha`` when the buffer
        overflows despite probabilistic dropping (SIGCOMM'98 uses a small
        fixed percentage; 0.99 here).
    """

    k_flow: float = 0.1
    k_alpha: float = 0.1
    k_window: float = 0.1
    overflow_alpha_decay: float = 0.99

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive("k_flow", "k_alpha", "k_window")
        if not 0.0 < self.overflow_alpha_decay <= 1.0:
            raise ConfigurationError(
                f"overflow_alpha_decay must be in (0, 1], got {self.overflow_alpha_decay}"
            )
