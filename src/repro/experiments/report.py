"""Shared report formatting for experiment drivers.

Every driver returns a result object exposing ``headers`` and ``rows``;
:func:`format_table` renders them with aligned columns so benchmarks and
examples print the same tables the paper reports.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ReproError

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Monospace table with a header rule, columns right-padded."""
    if not headers:
        raise ReproError("table needs at least one column")
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row has {len(row)} fields but header has {len(headers)}"
            )
        str_rows.append([str(v) for v in row])
    widths = [
        max(len(r[i]) for r in str_rows) for i in range(len(headers))
    ]
    lines = []
    for idx, row in enumerate(str_rows):
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
