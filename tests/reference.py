"""The paper's per-packet datapath, switched back on for a test.

Every exact fast path — shaper releases, the egress ledger, idle-epoch
parking, the last core hop handed over — engages only where the plan
(:mod:`repro.experiments.fastpaths`) turns it on, and :func:`reference`
patches the planner to plan nothing.  Departure-time links stay on: the real
queue splits markers off their carriers and trains at the link, which moves
sends and ids by design (``tests/test_link.py`` holds that path).
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.experiments import fastpaths

from .contract import EXACT, replay


@contextmanager
def reference():
    """Plan no fast path for the ``with`` block: a cloud finalized (or a rig
    planned) inside it runs the per-packet datapath."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastpaths, "plan", lambda *args, **kwargs: None)
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
