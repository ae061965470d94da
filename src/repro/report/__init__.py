"""Text rendering of experiment outputs (tables and series)."""

from repro.report.tables import render_table, render_series

__all__ = ["render_table", "render_series"]
