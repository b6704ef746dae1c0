"""Marker injection (paper §2.2, step 1).

The ingress edge introduces one marker packet after every
``Nw = K1 * w(f)`` data packets, so a flow transmitting at ``bg(f)`` emits
markers at rate ``bg(f) / (K1 * w(f))`` — i.e. the marker rate *is* the
flow's normalized rate (up to the constant ``1/K1``).  This is the property
the whole architecture rests on: the core can generate weighted-fair
feedback by sampling markers without knowing flows or weights.

``Nw`` need not be an integer (``K1`` and ``w`` are real); the injector
uses a credit accumulator so that the long-run marker/data ratio is exactly
``1/Nw`` for any positive real ``Nw``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["MarkerInjector"]


class MarkerInjector:
    """Decides, per data packet, whether a marker follows it."""

    __slots__ = ("interval", "_credit", "markers_emitted")

    def __init__(self, interval: float) -> None:
        if interval <= 0:
            raise ConfigurationError(f"marker interval must be positive, got {interval}")
        self.interval = interval
        self._credit = 0.0
        self.markers_emitted = 0

    def on_data(self, size: float = 1.0) -> int:
        """Account one transmitted data packet of ``size`` units.

        The paper's marker spacing counts "data packets (or bytes)": with
        the default unit size this is the packet count; passing byte (or
        fractional-packet) sizes gives the byte-mode spacing.  Returns how
        many markers must be injected right after the packet: 0 or 1 for
        the usual ``Nw >= size``, possibly more when ``K1 * w < size``.
        """
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        self._credit += size
        markers = 0
        while self._credit >= self.interval:
            self._credit -= self.interval
            markers += 1
        self.markers_emitted += markers
        return markers

    def on_train(self, n: int) -> int:
        """Account ``n`` unit-size data packets at once (train datapath).

        Equivalent to ``n`` calls of :meth:`on_data` up to float rounding
        (one division instead of up to ``n`` subtractions); the long-run
        marker/data ratio is identical.  Returns the markers now due.
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        credit = self._credit + n
        markers = int(credit // self.interval)
        if markers:
            credit -= markers * self.interval
            self.markers_emitted += markers
        self._credit = credit
        return markers

    def reset(self) -> None:
        """Forget accumulated credit (used when a flow restarts)."""
        self._credit = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MarkerInjector(Nw={self.interval}, markers={self.markers_emitted})"
