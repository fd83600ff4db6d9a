"""Plain-text reporting of experiment results.

The benchmark harness prints the same rows/series the paper reports — AUROC per
approach per workload, sensitivity curves, runtime series — as fixed-width text
tables so results are readable in CI logs and easy to diff against
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence


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


def format_auroc_map(title: str, aurocs: Mapping[str, float]) -> str:
    """Small two-column table of approach → AUROC."""
    rows = [[name, value] for name, value in aurocs.items()]
    return f"{title}\n" + format_table(["approach", "AUROC"], rows)


def format_series(title: str, series: Mapping[object, float], value_name: str = "value") -> str:
    """One-parameter sweep (sensitivity, scalability) as a two-column table."""
    rows = [[str(key), value] for key, value in series.items()]
    return f"{title}\n" + format_table(["parameter", value_name], rows)
