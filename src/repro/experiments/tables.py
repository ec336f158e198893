"""Plain-text result tables for experiment output.

Benchmarks print the same row/column structure the paper's tables use;
this module owns the formatting so every experiment reports uniformly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table.

    Cells are stringified with ``str``; floats are shown with four
    significant digits.
    """

    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        if cell is None:
            return "-"
        return str(cell)

    body: List[List[str]] = [[render(cell) for cell in row]
                             for row in rows]
    columns = [list(column) for column in
               zip(*([list(headers)] + body))] if body else \
        [[h] for h in headers]
    widths = [max(len(cell) for cell in column) for column in columns]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width)
                          for cell, width in zip(cells, widths)).rstrip()

    separator = "-+-".join("-" * width for width in widths)
    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(separator)
    parts.extend(line(row) for row in body)
    return "\n".join(parts)
