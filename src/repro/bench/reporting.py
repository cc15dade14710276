"""Plain-text tables for the experiments.

Every experiment renders the rows it regenerates (the analogue of the
paper's figures) with :func:`format_table`; ``experiments/`` compares
them with the committed tables EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from typing import Sequence


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned ASCII table with a title rule."""
    rendered = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
