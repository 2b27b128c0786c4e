"""Figures 3-6: the DTMB layouts and their graph-model properties.

The paper's Figures 3-6 draw the four interstitial architectures (plus an
alternative DTMB(2,6)) and their primary/spare adjacency graphs.  This
driver regenerates each layout, verifies Definition 1 empirically — every
non-boundary primary adjacent to exactly s spares, every interior spare to
exactly p primaries — and reports the realized redundancy ratios, with an
ASCII rendering per design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import ALL_DESIGNS
from repro.designs.interstitial import build_chip
from repro.designs.spec import DesignSpec
from repro.designs.verify import verify_design
from repro.experiments.registry import BudgetPolicy, register
from repro.experiments.report import format_table
from repro.geometry.hexgrid import RectRegion
from repro.viz.ascii_art import render_chip
from repro.yieldsim.engine import SweepEngine

__all__ = ["LayoutsResult", "run"]

DEFAULT_SIZE = 12


@dataclass(frozen=True)
class LayoutsResult:
    """Verified structure of every catalog design."""

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]
    renderings: Dict[str, str]

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)


@register(
    "figs3to6",
    title="DTMB layouts and their verified graph structure",
    paper_ref="Figures 3-6",
    order=30,
    budget=BudgetPolicy(deterministic=True),
    charts=lambda raw: tuple(
        (name, f"{name}:\n{art}") for name, art in raw.renderings.items()
    ),
)
def run(
    *,
    runs: int = 0,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = ALL_DESIGNS,
    size: int = DEFAULT_SIZE,
) -> LayoutsResult:
    """Build, verify and render each design on a ``size x size`` array.

    Deterministic: ``runs``, ``seed`` and ``engine`` are accepted for the
    uniform experiment signature but have no effect.
    """
    rows: List[Tuple[object, ...]] = []
    renderings: Dict[str, str] = {}
    for spec in designs:
        chip = build_chip(spec, RectRegion(size, size))
        report = verify_design(spec, chip)  # raises on any violation
        rows.append(
            (
                spec.name,
                report.uniform_s(),
                report.uniform_p(),
                f"{float(spec.redundancy_ratio):.4f}",
                f"{report.redundancy_ratio:.4f}",
                chip.primary_count,
                chip.spare_count,
            )
        )
        renderings[spec.name] = render_chip(chip)
    headers = (
        "design",
        "s (verified)",
        "p (verified)",
        "RR (asymptotic)",
        "RR (this array)",
        "primaries",
        "spares",
    )
    return LayoutsResult(headers=headers, rows=tuple(rows), renderings=renderings)
