"""Plain-text rendering of tables and figure series.

Benches print their artifacts through these helpers so every reproduced
table/figure has one consistent, diff-able text form (captured in
EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """A fixed-width text table.

    Column widths adapt to content; all values are str()-ed.
    """
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_line(list(headers)))
    lines.append(fmt_line(["-" * width for width in widths]))
    lines.extend(fmt_line(row) for row in rendered_rows)
    return "\n".join(lines)


def render_series(
    label: str,
    points: Iterable[tuple[float, float]],
    x_name: str = "x",
    y_name: str = "y",
    y_scale: float = 1.0,
    precision: int = 3,
) -> str:
    """One figure series as '(x, y)' text, e.g. a CDF or a failure curve."""
    parts = [f"{label} [{x_name} -> {y_name}]:"]
    for x, y in points:
        parts.append(f"  ({x:g}, {y * y_scale:.{precision}f})")
    return "\n".join(parts)


def format_percent(value: float, precision: int = 1) -> str:
    """0.0316 -> '3.2 %'."""
    return f"{value * 100:.{precision}f} %"
