"""Shared report formatting for experiment drivers.

Every driver returns a result object exposing ``headers`` and ``rows``;
:func:`format_table` renders them with aligned columns so benchmarks and
examples print the same tables the paper reports.  The side-by-side
scenario experiments share one result type, :class:`RegimeComparison`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ReproError
from repro.viz.plot import ascii_chart

__all__ = ["RegimeComparison", "format_table"]


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


@dataclass(frozen=True)
class RegimeComparison:
    """One chip's yield over a p grid under named regimes, side by side.

    A regime is a defect model or a success criterion.  ``columns`` holds
    one ``(series name, table header)`` pair per regime, baseline first;
    ``yields`` maps a series name to ``{p: yield}``.  With ``gap_column``
    the table ends with the baseline's lead over the last regime.
    """

    ps: Tuple[float, ...]
    columns: Tuple[Tuple[str, str], ...]
    yields: Dict[str, Dict[float, float]]
    title: str
    x_label: str
    gap_column: bool = False

    @property
    def headers(self) -> List[str]:
        gap = ["gap"] if self.gap_column else []
        return ["p", *(header for _, header in self.columns), *gap]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        base = self.yields[self.columns[0][0]]
        last = self.yields[self.columns[-1][0]]
        return [
            (
                f"{p:.2f}",
                *(f"{self.yields[name][p]:.4f}" for name, _ in self.columns),
                *([f"{base[p] - last[p]:.4f}"] if self.gap_column else []),
            )
            for p in self.ps
        ]

    def gap(self, regime: str) -> float:
        """Worst yield shortfall of a regime vs the baseline."""
        base = self.yields[self.columns[0][0]]
        return max(base[p] - self.yields[regime][p] for p in self.ps)

    def format_chart(self) -> str:
        series = {
            name: [(p, self.yields[name][p]) for p in self.ps]
            for name, _ in self.columns
        }
        return ascii_chart(
            series, title=self.title, y_label="yield", x_label=self.x_label
        )
