"""CSFQ configuration.

The paper's §4 sets ``K`` (flow rate estimation) and ``Klink`` (the window
for the aggregate rate / fair share computation) to 100 ms, the same
40-packet buffers, and source agents with the same adaptation constants as
Corelite's: those and the shaper are the inherited
:class:`repro.core.config.EdgeConfig`, which is all the shared
:class:`repro.core.adaptation.RateController` reads.  The core's
SIGCOMM'98 constants (``K_ALPHA``, ``OVERFLOW_ALPHA_DECAY``) are constants
of :mod:`repro.csfq.router`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import EdgeConfig

__all__ = ["CsfqConfig"]


@dataclass
class CsfqConfig(EdgeConfig):
    """Tunables for the weighted CSFQ baseline, on top of :class:`EdgeConfig`.

    Attributes
    ----------
    k_flow:
        Averaging constant ``K`` of the per-flow exponential rate estimator
        at the ingress edge, seconds.
    k_window:
        ``Klink``: the window after which the fair share ``alpha`` is
        updated (congested: ``alpha *= C/F``; uncongested: ``alpha`` is the
        max label seen), seconds.
    """

    k_flow: float = 0.1
    k_window: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_positive("k_flow", "k_window")
