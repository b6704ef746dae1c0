"""The Corelite mechanisms (the paper's primary contribution).

Edge-router side (paper §2.2 steps 1 and 3):

* :mod:`repro.core.shaping` — per-flow shaping: a paced sender emitting
  data packets at the flow's allowed rate ``bg(f)``.
* :mod:`repro.core.marking` — marker injection after every
  ``Nw = K1 * w(f)`` data packets, so the marker rate reflects the flow's
  normalized rate ``bg/w``.
* :mod:`repro.core.adaptation` — slow-start plus the weighted
  linear-increase/multiplicative-decrease controller driven by marker
  feedback (reacting to the *max* feedback from any single core router).
* :mod:`repro.core.edge` — the edge router tying the above together.

Core-router side (paper §2.2 step 2, §3):

* :mod:`repro.core.congestion` — incipient congestion detection from the
  epoch-averaged queue length and the ``Fn`` marker-count formula.
* :mod:`repro.core.cache_feedback` — the marker-cache selection mechanism.
* :mod:`repro.core.selective_feedback` — the truly stateless selective
  scheme (running label average ``rav``, selection probability
  ``pw = Fn/wav``, deficit swapping).
* :mod:`repro.core.router` — the core router: plain forwarding plus the
  per-output-link congestion epoch.
"""

from repro.core.adaptation import Phase, RateController
from repro.core.cache_feedback import MarkerCacheFeedback
from repro.core.config import CoreliteConfig, FeedbackScheme
from repro.core.congestion import (
    CongestionDetector,
    LinearCongestionEstimator,
    Mm1CongestionEstimator,
)
from repro.core.edge import CoreliteEdge, FlowAttachment
from repro.core.marking import MarkerInjector
from repro.core.router import CoreliteCoreRouter
from repro.core.selective_feedback import SelectiveFeedback
from repro.core.shaping import PacedSender

__all__ = [
    "CoreliteConfig",
    "FeedbackScheme",
    "PacedSender",
    "MarkerInjector",
    "RateController",
    "Phase",
    "CongestionDetector",
    "Mm1CongestionEstimator",
    "LinearCongestionEstimator",
    "MarkerCacheFeedback",
    "SelectiveFeedback",
    "CoreliteEdge",
    "FlowAttachment",
    "CoreliteCoreRouter",
]
