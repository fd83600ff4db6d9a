"""Plain-text reporting of experiment results as fixed-width text tables."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], float_precision: int = 3
) -> str:
    """Render a fixed-width text table."""

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_precision}f}"
        return str(value)

    rendered_rows = [[render(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rendered_rows
    ]
    return "\n".join([line, separator, *body])
