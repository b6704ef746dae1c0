"""Plain-text reporting: tables and ASCII line charts.

The paper's figures are rate-vs-time line plots.  The benchmarks and
examples render the same series as terminal-friendly ASCII charts and
aligned tables, so the reproduction is inspectable without a plotting
stack (the evaluation environment is offline).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.monitor import Series

__all__ = [
    "format_table",
    "ascii_chart",
    "rate_comparison_table",
    "save_series_csv",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render an aligned monospace table."""
    if not headers:
        raise ConfigurationError("table needs at least one column")

    def render(cell: object) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in str_rows
    )
    return "\n".join(lines)


def ascii_chart(
    series: Mapping[str, Series],
    width: int = 78,
    height: int = 18,
    y_max: Optional[float] = None,
    title: str = "",
) -> str:
    """Render one or more time series as an ASCII line chart.

    Each series gets a marker character (``1``-``9`` then ``a``-``z``);
    collisions show the later series' marker.  Values are binned by time
    across ``width`` columns (mean per bin).
    """
    if not series:
        raise ConfigurationError("nothing to chart")
    if width < 10 or height < 4:
        raise ConfigurationError("chart too small to be legible")
    markers = "123456789abcdefghijklmnopqrstuvwxyz"
    if len(series) > len(markers):
        raise ConfigurationError(f"too many series ({len(series)}) for one chart")

    t_min = min(s.times[0] for s in series.values() if len(s))
    t_max = max(s.times[-1] for s in series.values() if len(s))
    if t_max <= t_min:
        t_max = t_min + 1.0
    if y_max is None:
        y_max = max(max(s.values) for s in series.values() if len(s))
    if y_max <= 0:
        y_max = 1.0

    grid = [[" "] * width for _ in range(height)]
    for marker, s in zip(markers, series.values()):
        bins: Dict[int, List[float]] = {}
        for t, v in s:
            col = min(width - 1, int((t - t_min) / (t_max - t_min) * (width - 1)))
            bins.setdefault(col, []).append(v)
        for col, values in bins.items():
            mean = sum(values) / len(values)
            row = min(height - 1, int(mean / y_max * (height - 1)))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:8.1f} +" + "-" * width)
    lines.extend(" " * 9 + "|" + "".join(row) for row in grid)
    lines.append(f"{0.0:8.1f} +" + "-" * width)
    lines.append(" " * 10 + f"t = {t_min:.0f} .. {t_max:.0f} s")
    legend = "  ".join(
        f"{m}={name}" for m, name in zip(markers, series.keys())
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def rate_comparison_table(
    measured: Mapping[int, float],
    expected: Mapping[int, float],
    weights: Mapping[int, float],
    losses: Optional[Mapping[int, int]] = None,
) -> str:
    """The paper-style table: flow, weight, measured vs expected rate."""
    headers = ["flow", "weight", "measured pkt/s", "expected pkt/s", "rel err"]
    if losses is not None:
        headers.append("losses")
    rows: List[List[object]] = []
    for fid in sorted(expected):
        exp = expected[fid]
        got = measured.get(fid, 0.0)
        err = abs(got - exp) / exp if exp > 0 else math.inf
        row: List[object] = [fid, weights.get(fid, 1.0), got, exp, err]
        if losses is not None:
            row.append(losses.get(fid, 0))
        rows.append(row)
    return format_table(headers, rows)


def save_series_csv(path: str, series: Mapping[str, Series]) -> int:
    """Write multiple series as a wide CSV (time column + one per series).

    Sample times are unioned; a series without a sample at some time gets
    an empty cell (gnuplot/pandas both cope).  Returns the row count.
    """
    if not series:
        raise ConfigurationError("nothing to export")
    times = sorted({t for s in series.values() for t in s.times})
    names = list(series)
    lookup = {name: dict(zip(s.times, s.values)) for name, s in series.items()}
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time," + ",".join(names) + "\n")
        for t in times:
            cells = [f"{t:.6g}"]
            for name in names:
                value = lookup[name].get(t)
                cells.append(f"{value:.6g}" if value is not None else "")
            fh.write(",".join(cells) + "\n")
            rows += 1
    return rows
