"""The paper's per-packet datapath, switched back on for a test.

Each exact fast path starts at one eligibility predicate, and
:func:`reference` answers all four "no": ``EdgeRouter._release_fence``
gives ``None`` (no shaper releases or parks on its epoch: "Releases" in
:mod:`repro.core.shaping`), ``Link._sink_of`` gives ``None`` (no egress
ledger, no CSFQ ``quiet_for``), ``Link.watch_backlog`` gives ``False``
(no idle core link parks its epoch) and ``Link.pass_through`` gives
``False`` (every last core hop is an event: "Pass-through" in
:mod:`repro.sim.link`).  Departure-time links stay on:
the real queue splits markers off their carriers and trains at the link,
which moves sends and ids by design (``tests/test_link.py`` holds that path).
Taps, drop listeners and arming are wired before traffic flows
(:mod:`repro.sim.link`), so none lands under a fast path mid-run.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.edge import EdgeRouter
from repro.sim.link import Link

from .contract import EXACT, replay


@contextmanager
def reference():
    """Patch the four predicates for the ``with`` block; a cloud built
    inside it runs the per-packet datapath (links read ``_sink_of`` when
    they are built, the builder asks ``pass_through`` at finalize)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EdgeRouter, "_release_fence", lambda edge, state: None)
        patch.setattr(Link, "_sink_of", staticmethod(lambda dst: None))
        patch.setattr(Link, "watch_backlog", lambda link, callback: False)
        patch.setattr(Link, "pass_through", lambda link, egress: False)
        yield


def differential(make, sample_interval=1.0):
    """Run ``make()``'s cloud with the fast paths and inside
    :func:`reference`: the contract's exact fields equal, fewer events.
    Returns the fast run's cloud."""
    clouds = []
    fast = replay(*make(), sample_interval, clouds.append)
    with reference():
        slow = replay(*make(), sample_interval)
    assert {f: fast[f] for f in EXACT} == {f: slow[f] for f in EXACT}, (fast, slow)
    assert fast["events"] < slow["events"]
    return clouds[0]
