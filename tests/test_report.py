"""Unit tests for text reporting."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.report import (
    ascii_chart,
    format_table,
    rate_comparison_table,
)
from repro.sim.monitor import Series


class TestFormatTable:
    def test_alignment_and_floats(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out and "22.25" in out
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestAsciiChart:
    def make_series(self):
        s = Series("r")
        for t in range(20):
            s.append(float(t), float(t * 5))
        return s

    def test_renders_title_and_legend(self):
        out = ascii_chart({"flow1": self.make_series()}, title="Rates")
        assert out.startswith("Rates")
        assert "1=flow1" in out

    def test_multiple_series_get_distinct_markers(self):
        out = ascii_chart({"a": self.make_series(), "b": self.make_series()})
        assert "1=a" in out and "2=b" in out

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({})

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"a": self.make_series()}, width=5)

    def test_y_max_override(self):
        out = ascii_chart({"a": self.make_series()}, y_max=1000.0)
        assert "1000.0" in out


def test_rate_comparison_table():
    out = rate_comparison_table(
        measured={1: 24.0, 2: 76.0},
        expected={1: 25.0, 2: 75.0},
        weights={1: 1.0, 2: 3.0},
        losses={1: 0, 2: 3},
    )
    assert "flow" in out
    assert "24.00" in out
    assert "losses" in out
