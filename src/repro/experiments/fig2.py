"""Figure 2: the reconfiguration-cost blow-up of boundary spare rows.

The paper's Figure 2 shows a three-module array with one spare row: a fault
in Module 1 (adjacent to the spare row) relocates only Module 1, but a
fault in Module 3 drags fault-free Module 2 (and Module 1) through a
shifted replacement.  This driver quantifies that story: repair cost as a
function of the faulty module's distance from the spare row, against the
constant one-cell cost of interstitial redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.designs.boundary import SpareRowArray
from repro.experiments.registry import BudgetPolicy, register
from repro.reconfig.shifted import shifted_cost_by_fault_row
from repro.yieldsim.engine import SweepEngine

__all__ = ["Fig2Result", "run", "default_array"]


def default_array() -> SpareRowArray:
    """The Figure 2 setup: three 3-row modules over an 8-wide array.

    Module 3 is farthest from the spare row, Module 1 adjacent to it,
    matching the paper's numbering.
    """
    return SpareRowArray.uniform(cols=8, module_heights=[3, 3, 3])


@dataclass(frozen=True)
class Fig2Result:
    """Shifted-replacement cost per faulty module vs interstitial repair."""

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def max_collateral(self) -> int:
        """Largest number of fault-free modules dragged into a repair."""
        return max(int(r[3]) for r in self.rows)


@register(
    "fig2",
    title="Reconfiguration cost of boundary spare rows vs interstitial",
    paper_ref="Figure 2",
    order=20,
    budget=BudgetPolicy(deterministic=True),
)
def run(
    *,
    runs: int = 0,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    array: Optional[SpareRowArray] = None,
) -> Fig2Result:
    """Cost table for one fault per module (worst row of each module).

    Deterministic: ``runs``, ``seed`` and ``engine`` are accepted for the
    uniform experiment signature but have no effect.
    """
    array = array or default_array()
    records = shifted_cost_by_fault_row(array)
    # One representative row per module: the module's farthest-from-spare
    # row (its worst case).
    by_module = {}
    for record in records:
        name = record["module"]
        if name not in by_module:
            by_module[name] = record  # first row seen is farthest (row order)
    rows: List[Tuple[object, ...]] = []
    for name, record in sorted(
        by_module.items(), key=lambda kv: -int(kv[1]["distance_to_spare_row"])
    ):
        rows.append(
            (
                name,
                record["distance_to_spare_row"],
                record["modules_reconfigured"],
                record["fault_free_modules_reconfigured"],
                record["cells_remapped"],
                1,  # interstitial redundancy: one spare cell swaps in
                0,  # ...and no fault-free module is touched
            )
        )
    headers = (
        "faulty module",
        "rows from spare",
        "modules reconfigured (shifted)",
        "fault-free modules reconfigured (shifted)",
        "cells remapped (shifted)",
        "cells remapped (interstitial)",
        "fault-free modules (interstitial)",
    )
    return Fig2Result(headers=headers, rows=tuple(rows))
