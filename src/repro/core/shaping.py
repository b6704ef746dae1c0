"""Per-flow shaping at the ingress edge (paper §2.2, step 1).

Each ingress edge router "maintains the allowed transmission rate bg(f)
for every flow passing through it, and shapes the flow's traffic according
to its current bg(f)".  The shaper is a token bucket draining at ``bg``,
``burst`` tokens deep: one on the scalar path, where it is pure *pacing* —
one packet every ``1/bg`` seconds, the paper's model for its
always-backlogged sources — and ``train_batch`` in train mode, so the
bucket can hold a whole train ("Train mode").

The ``emit`` callback reports whether it actually sent a packet.  When a
flow has nothing to send, the shaper *parks* (no timer) instead of firing
empty slots; whoever refills the backlog calls :meth:`PacedSender.kick`.
Rate changes take effect immediately: the accumulated credit is re-priced
at the new rate, so a throttled flow cannot burst on credit earned at its
old, higher rate.

Hot frames: a firing (``_fire``) is one frame per release, scalar or
train — the float operations of ``_accrue`` and ``_delay_until_token`` in
their order (in train mode, one call of the train-delay rule
``_train_delay``, which does not accrue again), the debit and, last, the
re-arm through ``Simulator.reschedule`` or the park on the epoch
("Releases").  Only its emission step branches on the mode: one packet
through ``emit``, or a train through ``train_emit``.  It does only what a
result reads: the burst clamp and the debit are conditionals with ``min`` /
``max``'s semantics, not builtin calls, and no send is counted (an edge's
ingress ``seq`` is that count).  ``set_rate`` is one frame too in scalar
mode: it re-prices the credit and prices the next firing inline (train
mode calls ``_train_delay``), calling ``_schedule`` only for an armed
shaper.  ``_accrue``, ``_delay_until_token`` and ``_schedule`` remain for
``kick``, ``credit()`` and a firing whose emit callback re-armed the
shaper, moved the clock or changed the rate.

Releases
--------
A flow's rate changes only when its edge's epoch runs (paper §2.2, step 3),
so between two epochs an always-backlogged flow's departure times are fixed.
``_fire`` is therefore a loop, in either mode: after each emission (a packet
or a train) it computes the next firing time exactly as the re-arm would,
and while that time is strictly before the flow's *fence* it runs that
firing at once, with the simulator's clock set to the firing's instant
(restored when the loop ends).  The fence is the earliest of the edge
epoch's next firing (the ``time`` of the epoch task's handle, held in
``fence``), the bound of the running ``run`` and the next instant
registered with ``Simulator.add_fence`` — flow on/off transitions and
network events — as :meth:`~repro.sim.engine.Simulator.fence`
gives it.  A shaper
whose ``fence`` is ``None`` runs the loop once: one firing per packet, or
per train.

The first firing on or past the fence takes a timer only when it comes
before the epoch's next firing (a run or window bound, a registered
instant).  One on or past the epoch's takes none: the shaper *parks on its
epoch*, keeping that firing's float in ``_due``.  The epoch runs first, as
it would before such a timer, whose heap entry it precedes
(``EdgeRouter._epoch``): ``set_rate`` re-prices ``_due`` exactly as the
re-arm it replaces would (``now`` plus the delay to a whole token, or in
train mode to a train), or leaves it when the rate holds; train mode's idle
cap counts a parked shaper as armed, as it would its timer.  The epoch
calls :meth:`release` only while ``_due`` is set, and it runs the loop in
place from ``_due``, fenced by the epoch's next instant as ``PeriodicTask``
re-arms it (``now + interval``) and capped by ``Simulator.fence``.  A run
ending or a flow stopping between two epochs finds no timer to cancel:
``stop`` drops ``_due`` and ``kick`` leaves a parked shaper be.

Only the edge sets ``fence`` (``EdgeRouter._epoch``), for a flow the
fast-path plan (:mod:`repro.experiments.fastpaths`) made a candidate: one
whose release touches nothing another event reads or writes before the
fence: the shaper's credit and clock, the flow's rate, injector and ``seq``,
and a first-hop link and route of its own — a train and an aggregate
bucket's extra markers included, which leave in their firing.  Each packet
(or train) then leaves at the float instant a firing per packet (or per
train) gives it; only its first-hop delivery's heap seq is assigned
earlier.  That matters only where two deliveries reach one node at the same
float instant — two flows pacing on one grid, which in slow start (every
rate the initial rate times a power of two) is the rule for flows started
on a common grid — so a flow releases only once its controller has left
slow start.  A ``set_rate``, ``stop`` or ``kick`` that lands before the
last release is a change the fence did not know about, and raises
:class:`~repro.errors.FenceError`.

Train mode (opt-in)
-------------------
With ``train_batch = K > 1`` the shaper coalesces departures: instead of
one timer firing per packet it sleeps until ~K tokens have accrued (never
longer than :data:`TRAIN_HORIZON` seconds) and emits them as one batch through
the ``train_emit(allowance) -> sent`` callback — the edge wraps the batch
in a single :class:`~repro.sim.packet.PacketTrain`.  The long-run rate is
unchanged (tokens still accrue at ``bg``); what changes is the burst
structure: up to K packets leave back-to-back, which is why train mode is
pinned statistically rather than byte-identically.  A train is one firing
of the same ``_fire`` loop, so past slow start a train shaper releases and
parks on its epoch like a scalar one ("Releases").  The horizon cap keeps
slow flows responsive — a flow at rate ``r`` coalesces
``min(K, r * TRAIN_HORIZON)`` packets, so coalescing fades out exactly
where per-event overhead no longer dominates.  (The literal paper-world
criterion — coalesce while the inter-packet gap is below the bottleneck
serialization time — degenerates at simulated rates: gaps are milliseconds
while serialization is microseconds, so the time horizon stands in as the
engageable form of the same rule.)
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional

from repro.errors import ConfigurationError, FenceError
from repro.sim.engine import EventHandle, Simulator

__all__ = ["PacedSender", "TRAIN_HORIZON"]

#: Tolerance when testing for a whole token: repeated accrual over float
#: timestamps can land at 1 - 1e-16, and the residual delay would round
#: to the same simulation instant (a livelock).
_TOKEN_EPS = 1e-9

#: Cap on how long a train-mode shaper waits to coalesce a batch.
#: Bounds the extra shaping latency a member can pick up (one horizon) and
#: scales the effective batch for slow flows to ``rate * horizon``.
TRAIN_HORIZON = 0.05


class PacedSender:
    """Token-bucket shaper emitting via an ``emit() -> sent?`` callback."""

    __slots__ = (
        "_sim",
        "_emit",
        "_rate",
        "burst",
        "_credit",
        "_last_accrual",
        "_running",
        "_handle",
        "_last_emit",
        "idle_parks",
        "_train_batch",
        "_train_emit",
        "fence",
        "_due",
    )

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        emit: Callable[[], Optional[bool]],
        train_batch: int = 1,
        train_emit: Optional[Callable[[int], int]] = None,
    ) -> None:
        if rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate}")
        if train_batch < 1 or train_batch != int(train_batch):
            raise ConfigurationError(
                f"train_batch must be a positive integer, got {train_batch}"
            )
        if train_batch > 1 and train_emit is None:
            raise ConfigurationError("train_batch > 1 requires a train_emit callback")
        self._sim = sim
        self._emit = emit
        self._rate = rate
        self._train_batch = int(train_batch)
        self._train_emit = train_emit
        #: The bucket's depth: it must be able to hold a whole batch of tokens.
        self.burst = float(train_batch)
        self._credit = 1.0  # a fresh flow may send immediately
        self._last_accrual = 0.0
        self._running = False
        self._handle: Optional[EventHandle] = None
        self._last_emit = -inf
        #: Times the shaper parked because the flow had nothing to send.
        self.idle_parks = 0
        #: When the scalar firing may release ahead ("Releases"): the handle
        #: of the task whose next firing may change the rate (the edge's epoch).
        self.fence: Optional[EventHandle] = None
        #: The instant of the next firing of a shaper parked on its epoch
        #: ("Releases"), which has no timer; ``None`` when not parked.
        self._due: Optional[float] = None

    @property
    def rate(self) -> float:
        """Current shaping rate in packets/second."""
        return self._rate

    @property
    def running(self) -> bool:
        return self._running

    def credit(self) -> float:
        """Current token balance, in packets (for tests/monitoring)."""
        self._accrue()
        return self._credit

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin shaping; a full token allows an immediate first packet."""
        if self._running:
            return
        self._running = True
        self._credit = max(self._credit, 1.0)
        self._last_accrual = self._sim.now
        self._schedule(0.0)

    def stop(self) -> None:
        """Stop shaping; a pending emission is cancelled."""
        if self._sim.now < self._last_emit:
            self._refuse()
        self._running = False
        self._due = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def set_rate(self, rate: float) -> None:
        """Change the shaping rate.

        The credit is re-priced as if the time since the last emission had
        accrued at the *new* rate (capped by the burst size): raising the
        rate lets a long-waiting flow send promptly, while lowering it
        revokes credit earned at the old rate — a freshly throttled flow
        must not burst.

        In train mode the bucket holds up to ``train_batch`` tokens, so
        the re-pricing is additionally capped at what had genuinely
        accrued (or one prompt token, whichever is larger).  Without that
        cap a rate raise on a slow flow materializes phantom tokens that
        drain one packet per horizon — a burst cadence far above the
        programmed rate that the scalar shaper's ``burst = 1`` cap makes
        impossible, and that skews rate-estimator labels downstream.
        """
        if rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate}")
        if self._sim.now < self._last_emit:
            self._refuse()
        if rate == self._rate:
            return
        now = self._sim.now
        waited = now - self._last_emit if self._last_emit > -inf else inf
        if self._train_batch > 1:
            self._accrue()
            accrued_cap = max(self._credit, 1.0)
            if self._handle is None and self._due is None:
                # Idle (or dormant): the scalar idle cap applies — see
                # :meth:`kick`.  Credit above one token here was banked
                # while idle, not accumulated mid-coalesce.  A shaper parked
                # on its epoch ("Releases") is armed: it holds the firing
                # a timer would.
                accrued_cap = 1.0
        else:
            accrued_cap = inf
        self._rate = rate
        self._credit = credit = min(self.burst, waited * rate, accrued_cap) if rate > 0 else 0.0
        self._last_accrual = now
        if self._due is None and not self._running:
            return
        if self._train_batch > 1:
            delay = self._train_delay()
        elif credit >= 1.0 - _TOKEN_EPS:  # ``_delay_until_token``, accrued to now
            delay = 0.0
        else:
            delay = -1.0 if rate <= 0.0 else (1.0 - credit) / rate
        if self._due is not None:
            # Parked on the epoch calling this, which releases it next: the
            # instant is re-priced as the re-arm below would price it.
            self._due = now + delay if delay >= 0 else None
        else:
            self._schedule(delay)

    def kick(self) -> None:
        """Wake a parked shaper: the flow's backlog became non-empty.

        In train mode the bucket is ``train_batch`` deep so an *active*
        flow can accumulate a batch between firings — but a *parked* flow
        must not bank one: the scalar shaper's ``burst = 1`` bucket caps
        idle credit at a single token, and an idle-banked K-burst on wake
        is a send pattern the scalar datapath cannot produce.  Waking
        from a park therefore clamps credit to the scalar idle cap.
        """
        if self._sim.now < self._last_emit:
            self._refuse()
        if not self._running or self._handle is not None or self._due is not None:
            return
        if self._train_batch > 1:
            self._accrue()
            if self._credit > 1.0:
                self._credit = 1.0
        self._schedule(self._next_delay())

    def release(self, epoch: float) -> None:
        """The edge epoch's call, after :meth:`set_rate`: a shaper parked on
        it runs its firings before ``epoch``, the epoch's next instant, in
        place ("Releases")."""
        if self._due is not None:
            self._fire(epoch)

    # -- internals --------------------------------------------------------

    def _refuse(self) -> None:
        """A change before the last release ("Releases")."""
        raise FenceError(
            f"shaper changed at t={self._sim.now} before its last release at "
            f"t={self._last_emit}: register the change's instant with "
            "Simulator.add_fence where it is scheduled"
        )

    def _accrue(self) -> None:
        now = self._sim.now
        if self._rate > 0 and now > self._last_accrual:
            self._credit = min(self.burst, self._credit + (now - self._last_accrual) * self._rate)
        self._last_accrual = now

    def _delay_until_token(self) -> float:
        self._accrue()
        if self._credit >= 1.0 - _TOKEN_EPS:
            return 0.0
        if self._rate <= 0.0:
            return -1.0  # dormant until the rate rises
        return (1.0 - self._credit) / self._rate

    def _next_delay(self) -> float:
        """Delay until the next firing under the active emission mode."""
        if self._train_batch > 1:
            return self._train_delay()
        return self._delay_until_token()

    def _train_delay(self) -> float:
        """Delay until a train is worth firing: a full batch of tokens, or
        the coalescing horizon, whichever comes first — but never before a
        single whole token exists (the firing would be empty).  Every
        caller has accrued credit up to ``now``."""
        rate = self._rate
        credit = self._credit
        target = float(self._train_batch)
        if credit >= target - _TOKEN_EPS:
            return 0.0
        if rate <= 0.0:
            return -1.0  # dormant until the rate rises
        delay = (target - credit) / rate
        horizon = TRAIN_HORIZON
        if delay > horizon:
            # The full batch is out of reach: coalesce only what the
            # horizon allows, and fire the moment the last whole token
            # within it matures.  Waiting past that point buys a fraction
            # no train can carry while delaying ready packets — a slow
            # flow (``rate * horizon < 1``) therefore fires at exactly
            # the scalar pacing cadence, which downstream rate estimators
            # rely on (a horizon-late packet reads as an instantaneous-
            # rate spike on the catch-up gap).
            reachable = int(credit + horizon * rate + _TOKEN_EPS)
            if reachable < 1:
                reachable = 1  # never fire empty: wait for a whole token
            delay = (reachable - credit) / rate
            if delay < 0.0:
                delay = 0.0
        return delay

    def _schedule(self, delay: float, reuse: Optional[EventHandle] = None) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if delay < 0:
            return  # dormant (rate 0); set_rate re-schedules
        if reuse is not None:
            # ``reuse`` is the handle whose heap entry just fired — re-arm
            # it in place instead of allocating a fresh one per emission.
            self._handle = self._sim.reschedule(delay, self._fire, reuse)
        else:
            self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self, epoch: Optional[float] = None) -> None:
        """One frame per release, which is one firing when ``fence`` is
        ``None`` (module docstring): a packet, or in train mode a train of
        ``min(train_batch, credit)`` through ``train_emit``.  The engine
        calls it as a timer; :meth:`release` with the parking epoch's next
        instant."""
        sim = self._sim
        start = sim.now
        if epoch is None:
            fired = self._handle
            self._handle = None
            if not self._running:
                return
            now = start
            fence = self.fence
            if fence is None:
                bound, epoch = now, inf
            else:
                epoch = fence.time
                bound = sim.fence(epoch)
        else:
            fired = None
            now = self._due
            self._due = None
            bound = sim.fence(epoch)
            if not now < bound:  # a run or window bound, a registered instant
                if now < epoch:
                    self._handle = sim.schedule_at(now, self._fire)
                else:
                    self._due = now
                return
            sim.now = now
        batch = self._train_batch
        try:
            while True:
                rate = self._rate
                credit = self._credit
                if rate > 0 and now > self._last_accrual:
                    credit += (now - self._last_accrual) * rate
                    credit = self._credit = credit if credit < self.burst else self.burst
                self._last_accrual = now
                if credit < 1.0 - _TOKEN_EPS:
                    if rate <= 0.0:
                        return  # dormant until the rate rises
                    delay = (1.0 - credit) / rate if batch == 1 else self._train_delay()
                else:
                    if batch == 1:
                        sent = self._emit()
                        if sent is not False:
                            # None counts as sent so plain callbacks need no return.
                            sent = 1
                    else:
                        sent = int(credit + _TOKEN_EPS)
                        sent = self._train_emit(sent if sent < batch else batch)
                    if not self._running:
                        return  # the emit callback tore the flow down
                    if not sent:
                        # Nothing to send: park until a deposit kicks us.
                        self.idle_parks += 1
                        return
                    credit = self._credit = self._credit - sent if self._credit > sent else 0.0
                    self._last_emit = sim.now
                    if self._handle is not None or sim.now != now or self._rate != rate:
                        # The callback re-armed the shaper, moved the clock or changed the rate.
                        self._accrue()
                        self._schedule(self._next_delay(), reuse=fired)
                        return
                    if batch != 1:
                        delay = self._train_delay()
                        if delay < 0.0:
                            return  # dormant until the rate rises
                    elif credit >= 1.0 - _TOKEN_EPS:
                        delay = 0.0
                    elif rate > 0.0:
                        delay = (1.0 - credit) / rate
                    else:
                        return  # dormant until the rate rises
                time = now + delay
                if not time < bound:
                    if time >= epoch:
                        self._due = time  # parked: the epoch runs first ("Releases")
                    elif fired is None:
                        self._handle = sim.schedule(delay, self._fire)
                    else:
                        self._handle = sim.reschedule(delay, self._fire, fired)
                    return
                sim.now = now = time  # release the next firing at its instant
        finally:
            sim.now = start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"PacedSender(rate={self._rate:.2f} pps, burst={self.burst}, {state})"
