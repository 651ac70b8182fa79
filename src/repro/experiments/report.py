"""Plain-text rendering helpers shared by the experiment modules.

Every experiment returns structured data *and* can render itself as the
rows/series the paper reports, so benchmark output is directly comparable
to the published tables and figures.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

#: Opens a result's wall-clock block.  Such a block is rendered last, so
#: the text before it repeats byte for byte on any host and is what
#: ``tests/test_golden_results.py`` holds the committed file to.
WALLCLOCK = "Wall-clock on the generating host (not pinned)"


def pinned(text: str) -> str:
    """``text`` without its wall-clock block (all of it if none)."""
    return text.partition(WALLCLOCK)[0]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width table with a separator under the header."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row]
                                 for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * width for width in widths]))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def fmt_bytes(nbytes: float) -> str:
    """Human-readable byte count."""
    units = ["B", "KB", "MB", "GB", "TB"]
    value = float(nbytes)
    for unit in units:
        if abs(value) < 1024 or unit == units[-1]:
            return f"{value:.2f} {unit}"
        value /= 1024.0
    return f"{value:.2f} TB"
