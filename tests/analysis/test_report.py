"""Tests for text rendering of tables and series."""

import pytest

from repro.analysis.report import (
    format_percent,
    format_table,
    render_series,
)


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(("a", "b"), [(1, "xx"), (22, "y")])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "--" in lines[1]
        assert lines[2].split() == ["1", "xx"]
        assert lines[3].split() == ["22", "y"]

    def test_title(self):
        text = format_table(("a",), [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_width_adapts_to_content(self):
        text = format_table(("h",), [("a-very-long-cell",)])
        header_line = text.splitlines()[0]
        assert len(header_line) <= len("a-very-long-cell")


class TestSeries:
    def test_render_series(self):
        text = render_series("S", [(1.0, 0.5)], x_name="d", y_name="cdf")
        assert "S [d -> cdf]:" in text
        assert "(1, 0.500)" in text

    def test_scale_applied(self):
        text = render_series("S", [(1.0, 0.5)], y_scale=100, precision=1)
        assert "(1, 50.0)" in text

    def test_format_percent(self):
        assert format_percent(0.0316) == "3.2 %"
        assert format_percent(0.5, precision=0) == "50 %"

