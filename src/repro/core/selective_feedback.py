"""Selective, truly flow-stateless marker feedback (paper §3.2).

The core keeps exactly two scalars per output link — no caches, no
per-flow anything:

* ``rav`` — a running average of the normalized-rate labels ``rn = bg/w``
  carried by traversing markers.  Flows with larger normalized rates emit
  proportionally more markers, so ``rav`` *overestimates* the plain mean;
  selecting only markers with ``rn >= rav`` therefore isolates exactly the
  flows using more than a weighted fair share.
* ``wav`` — a running average of markers observed per congestion epoch.

When the congestion detector asks for ``Fn`` feedback markers, each marker
arriving during the next epoch is selected with probability
``pw = Fn / wav`` and:

(a) selected and ``rn >= rav``  -> echoed to its edge;
(b) selected but ``rn <  rav``  -> *not* echoed; the deficit counter is
    incremented;
(c) not selected, but deficit > 0 and ``rn >= rav`` -> echoed and the
    deficit decremented.

The deficit swap guarantees that selections landing on below-average flows
are re-spent on above-average ones, so the *number* of feedbacks tracks
``Fn`` while the *recipients* are only the flows above their fair share.
Unlike CSFQ this never estimates the fair share explicitly, which is the
paper's explanation for Corelite's better transient behaviour (§4.2).

The deficit is reset at each epoch boundary and only markers of the
current epoch are considered (the paper calls out both properties as
deliberate limitations of the scheme).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import ConfigurationError
from repro.sim.rng import RngSource

__all__ = ["SelectiveFeedback"]

EmitFeedback = Callable[[int, str, float], None]

#: Gain of the exponential running average of marker labels (``rav``): per
#: marker, ``rav += RAV_GAIN * (rn - rav)``.  Chosen; the paper says only
#: "running average".
RAV_GAIN = 0.05
#: Gain of the running average of markers observed per epoch (``wav``): chosen.
WAV_GAIN = 0.25


class SelectiveFeedback:
    """Per-output-link selective marker feedback state machine."""

    __slots__ = (
        "_rng",
        "_take_rng",
        "_emit",
        "rav",
        "wav",
        "pw",
        "deficit",
        "_epoch_marker_count",
        "markers_seen",
        "feedback_sent",
        "swaps",
    )

    def __init__(self, rng: RngSource, emit: EmitFeedback) -> None:
        if isinstance(rng, random.Random):
            self._rng, self._take_rng = rng, None
        else:
            self._rng, self._take_rng = None, rng
        self._emit = emit
        #: Running average of marker labels (normalized rates), pkt/s.
        self.rav = 0.0
        #: Running average of markers per congestion epoch.
        self.wav = 0.0
        #: Selection probability for the current epoch (0 when uncongested).
        self.pw = 0.0
        #: Deficit counter: selections owed to above-average flows.
        self.deficit = 0
        self._epoch_marker_count = 0
        self.markers_seen = 0
        self.feedback_sent = 0
        self.swaps = 0

    def observe(
        self, flow_id: int, origin_edge: str, label: float, now: float, count: int = 1
    ) -> None:
        """Process ``count >= 1`` markers of one label (a train's), each as
        if it had arrived alone: update ``rav`` and maybe echo it."""
        if count > 1:
            # A train's markers: the steps below, per marker, on locals.
            seen = self.markers_seen
            self.markers_seen = seen + count
            self._epoch_marker_count += count
            rav = self.rav
            pw = self.pw
            draw = None
            if pw > 0.0:
                rng = self._rng
                if rng is None:
                    rng = self._rng = self._take_rng()
                draw = rng.random
            for _ in range(count):
                if seen:
                    rav += RAV_GAIN * (label - rav)
                else:
                    rav, seen = label, 1
                if draw is None:
                    continue
                selected = draw() < pw
                above_average = label >= rav
                if selected and above_average:
                    self._send(flow_id, origin_edge, label)
                elif selected:
                    self.deficit += 1
                elif self.deficit > 0 and above_average:
                    self.deficit -= 1
                    self.swaps += 1
                    self._send(flow_id, origin_edge, label)
            self.rav = rav
            return
        self.markers_seen += 1
        self._epoch_marker_count += 1
        # Running average of the labelled normalized rate.  Seed with the
        # first label so early epochs don't compare against an artificial 0.
        if self.markers_seen == 1:
            self.rav = label
        else:
            self.rav += RAV_GAIN * (label - self.rav)
        if self.pw <= 0.0:
            return
        rng = self._rng
        if rng is None:
            rng = self._rng = self._take_rng()
        selected = rng.random() < self.pw
        above_average = label >= self.rav
        if selected and above_average:
            self._send(flow_id, origin_edge, label)
        elif selected:
            self.deficit += 1  # owed: re-spend on a future above-average marker
        elif self.deficit > 0 and above_average:
            self.deficit -= 1
            self.swaps += 1
            self._send(flow_id, origin_edge, label)

    def on_epoch(self, n_markers: int, now: float) -> None:
        """Epoch boundary: fold the epoch's marker count into ``wav`` and
        arm the selection probability ``pw = Fn / wav`` for the next epoch."""
        if n_markers < 0:
            raise ConfigurationError(f"n_markers must be >= 0, got {n_markers}")
        if self.wav == 0.0:
            self.wav = float(self._epoch_marker_count)
        else:
            self.wav += WAV_GAIN * (self._epoch_marker_count - self.wav)
        self._epoch_marker_count = 0
        self.deficit = 0
        if n_markers > 0 and self.wav > 0.0:
            self.pw = min(1.0, n_markers / self.wav)
        else:
            self.pw = 0.0

    def fold_epoch(self, count: int) -> None:
        """Replay one *uncongested* epoch boundary skipped while the link's
        timer was parked, with ``count`` markers observed during it.

        Performs exactly the ``wav`` update :meth:`on_epoch` would have
        (same operation order, so the float trajectory is bit-identical)
        and returns the replayed markers from the live epoch counter,
        which kept accumulating across the parked period.  ``pw`` and
        ``deficit`` are provably zero for the whole parked span — parking
        requires an uncongested boundary, which arms ``pw = 0`` — so
        nothing else needs replaying.
        """
        if self.wav == 0.0:
            self.wav = float(count)
        else:
            self.wav += WAV_GAIN * (count - self.wav)
        self._epoch_marker_count -= count

    def _send(self, flow_id: int, origin_edge: str, label: float) -> None:
        self.feedback_sent += 1
        self._emit(flow_id, origin_edge, label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SelectiveFeedback(rav={self.rav:.2f}, wav={self.wav:.1f}, "
            f"pw={self.pw:.3f}, deficit={self.deficit})"
        )
