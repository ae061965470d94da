"""ASCII table and series rendering used by the CLI and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.3f}",
) -> str:
    """Render a fixed-width table.

    Floats are formatted with ``float_format``; everything else via
    ``str``.  Column widths adapt to content.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)

    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt([str(h) for h in headers]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in rendered_rows)
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: Dict[str, Sequence[float]],
    title: str = "",
    float_format: str = "{:.4f}",
) -> str:
    """Render several named series over a shared x-axis (figure data)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [values[i] for values in series.values()])
    return render_table(headers, rows, title=title, float_format=float_format)


def render_grouped_bars(
    groups: Dict[str, Dict[str, float]],
    width: int = 40,
    title: str = "",
) -> str:
    """ASCII bar chart: one bar per (group, key) pair."""
    peak = max(
        (value for bars in groups.values() for value in bars.values()),
        default=1.0,
    )
    peak = max(peak, 1e-12)
    lines = [title] if title else []
    for group, bars in groups.items():
        lines.append(group)
        for key, value in bars.items():
            bar = "#" * int(round(width * value / peak))
            lines.append(f"  {key:20s} {bar} {value:.3f}")
    return "\n".join(lines)
