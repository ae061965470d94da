"""Tests for the report rendering helpers."""

import pytest

from repro.report import render_series, render_table


class TestRenderTable:
    def test_basic(self):
        text = render_table(["a", "b"], [[1, 2.5], [3, 4.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text
        assert "4.250" in text

    def test_column_alignment(self):
        text = render_table(["name", "v"], [["x", 1.0], ["longer", 2.0]])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2])  # header width == ruler width

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_float_format(self):
        text = render_table(["v"], [[3.14159]], float_format="{:.1f}")
        assert "3.1" in text
        assert "3.14" not in text

    def test_non_float_cells_stringified(self):
        text = render_table(["v"], [["hello"], [42]])
        assert "hello" in text and "42" in text


class TestRenderSeries:
    def test_series_table(self):
        text = render_series(
            "KB", [16, 32], {"hadoop": [0.3, 0.2], "parsec": [0.1, 0.05]},
            title="fig",
        )
        assert "hadoop" in text and "parsec" in text
        assert "16" in text and "32" in text

    def test_values_paired_with_x(self):
        text = render_series("x", [1], {"s": [0.5]})
        assert "0.5000" in text

