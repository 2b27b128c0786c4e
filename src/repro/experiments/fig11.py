"""Figure 11: the fabricated multiplexed-diagnostics chip baseline.

The first-generation chip contains only the 108 assay cells — no spares —
so any single catastrophic fault scraps it: ``Y = p**108``.  The paper's
headline baseline number is Y = 0.3378 at p = 0.99.  This driver reproduces
the full curve and confirms the assay pipeline runs on the fault-free
square-electrode chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.assays.chipspec import PAPER_USED_COUNT, fabricated_chip
from repro.experiments.registry import BudgetPolicy, register
from repro.yieldsim.analytical import yield_no_redundancy
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.sweeps import DEFAULT_P_GRID

__all__ = ["Fig11Result", "run", "PAPER_BASELINE_P", "PAPER_BASELINE_YIELD"]

#: "It is only 0.3378 even if the survival probability ... is as high as 0.99."
PAPER_BASELINE_P = 0.99
PAPER_BASELINE_YIELD = 0.3378


@dataclass(frozen=True)
class Fig11Result:
    """Non-redundant baseline yield curve for the 108-cell chip."""

    cells: int
    ps: Tuple[float, ...]
    yields: Tuple[float, ...]

    def yield_at(self, p: float) -> float:
        for pi, y in zip(self.ps, self.yields):
            if abs(pi - p) < 1e-9:
                return y
        raise KeyError(f"no point at p={p}")

    @property
    def headers(self) -> List[str]:
        return ["p", f"yield ({self.cells} cells, no spares)"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (f"{p:.2f}", f"{y:.4f}") for p, y in zip(self.ps, self.yields)
        ]


@register(
    "fig11",
    title="Fabricated-chip baseline: Y = p^108, 0.3378 at p = 0.99",
    paper_ref="Figure 11",
    order=70,
    budget=BudgetPolicy(deterministic=True),
)
def run(
    *,
    runs: int = 0,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    ps: Sequence[float] = DEFAULT_P_GRID,
) -> Fig11Result:
    """Yield curve of the fabricated chip (exact, no simulation needed).

    Deterministic: ``runs``, ``seed`` and ``engine`` are accepted for the
    uniform experiment signature but have no effect.
    """
    chip = fabricated_chip()
    cells = len(chip)
    assert cells == PAPER_USED_COUNT
    yields = tuple(yield_no_redundancy(p, cells) for p in ps)
    return Fig11Result(cells=cells, ps=tuple(ps), yields=yields)
