"""Table 1: redundancy ratios of the defect-tolerant architectures.

The paper's Table 1 lists the asymptotic RR of DTMB(1,6), DTMB(2,6),
DTMB(3,6) and DTMB(4,4).  We reproduce it and additionally show the
realized RR of finite arrays converging to the asymptote as the footprint
grows — the boundary-clipping effect Definition 2 glosses over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.designs.catalog import TABLE1_DESIGNS
from repro.designs.interstitial import build_chip, rect_role_counts
from repro.designs.spec import DesignSpec
from repro.experiments.report import format_table
from repro.experiments.registry import BudgetPolicy, register
from repro.geometry.hexgrid import RectRegion
from repro.yieldsim.engine import SweepEngine

__all__ = ["Table1Result", "run"]

#: Paper's Table 1 values, for the report's reference column.
PAPER_RR = {
    "DTMB(1,6)": 0.1667,
    "DTMB(2,6)": 0.3333,
    "DTMB(3,6)": 0.5000,
    "DTMB(4,4)": 1.0000,
}

DEFAULT_SIZES: Tuple[int, ...] = (8, 16, 32, 64)


@dataclass(frozen=True)
class Table1Result:
    """Asymptotic and finite-array redundancy ratios per design."""

    sizes: Tuple[int, ...]
    rows: Tuple[Tuple[object, ...], ...]

    @property
    def headers(self) -> List[str]:
        return (
            ["design", "RR (s/p)", "RR (paper)"]
            + [f"RR {s}x{s}" for s in self.sizes]
        )

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)


@register(
    "table1",
    title="Redundancy ratios of the defect-tolerant architectures",
    paper_ref="Table 1",
    order=10,
    budget=BudgetPolicy(deterministic=True),
)
def run(
    *,
    runs: int = 0,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = TABLE1_DESIGNS,
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> Table1Result:
    """Compute Table 1 with finite-size convergence columns.

    Deterministic: ``runs``, ``seed`` and ``engine`` are accepted for the
    uniform experiment signature but have no effect.  A finite-array RR
    is counted, not built: it is the default coset's entry of
    :func:`~repro.designs.interstitial.rect_role_counts`.
    """
    rows = []
    for spec in designs:
        finite = []
        for size in sizes:
            primaries, spares = (int(c[0]) for c in rect_role_counts(spec, size, size))
            if not (primaries and spares):
                # Degenerate size: the builder raises the error to report.
                build_chip(spec, RectRegion(size, size)).redundancy_ratio()
            finite.append(f"{spares / primaries:.4f}")
        rows.append(
            (
                spec.name,
                f"{float(spec.redundancy_ratio):.4f}",
                f"{PAPER_RR.get(spec.name, float('nan')):.4f}",
                *finite,
            )
        )
    return Table1Result(sizes=tuple(sizes), rows=tuple(rows))
