"""Weighted Core-Stateless Fair Queueing (the paper's comparison baseline).

Re-implemented from the SIGCOMM'98 algorithm (Stoica, Shenker, Zhang),
in its weighted form: ingress edges estimate each flow's rate with
exponential averaging and label packets with the *normalized* rate
``r/w``; core routers estimate the fair share ``alpha`` of normalized
rates and drop each arriving packet with probability
``max(0, 1 - alpha/label)``, relabeling forwarded packets to
``min(label, alpha)``.

Sources use the same slow-start + LIMD adaptation as the Corelite agents,
driven by *losses* instead of markers ("congestion indication messages ...
losses in case of CSFQ", paper §4): the egress edge detects sequence gaps
and reports them to the ingress over the control plane.
"""

from repro.csfq.config import CsfqConfig
from repro.csfq.edge import CsfqEdge
from repro.csfq.router import CsfqCoreRouter
from repro.sim.estimators import ExponentialRateEstimator

__all__ = ["CsfqConfig", "ExponentialRateEstimator", "CsfqCoreRouter", "CsfqEdge"]
