"""Plain-text table rendering for experiments and benchmarks."""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned plain-text table.

    Cells are stringified; floats are shown with one decimal.  Used by
    every experiment to print paper-style tables.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.1f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_pct(fraction: float) -> str:
    """A fraction as a paper-style percentage string."""
    return f"{100.0 * fraction:.1f}%"
