"""Shifted replacement with a boundary spare row (Figure 2).

With spares only in a boundary row, microfluidic locality forces a chain of
replacements: the faulty cell is replaced by its neighbor toward the spare
row, that neighbor by *its* neighbor, and so on until the spare row absorbs
the last displacement.  At module granularity (how the paper draws it),
every module between the fault and the spare row slides over by one row —
reconfiguring fault-free modules and inflating cost.

:func:`plan_shifted_replacement` computes the row remap and the cost
metrics; :func:`shifted_cost_by_fault_row` produces the series behind the
Figure 2 discussion (cost vs distance from the spare row), which
:mod:`repro.experiments.fig2` turns into the paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.designs.boundary import ModulePlacement, SpareRowArray
from repro.errors import IrreparableChipError, ReconfigurationError
from repro.geometry.square import Square

__all__ = [
    "ShiftedPlan",
    "plan_shifted_replacement",
    "shifted_cost_by_fault_row",
]


@dataclass(frozen=True)
class ShiftedPlan:
    """Result of a shifted-replacement repair on a spare-row array.

    ``row_remap`` maps each *logical* module row to the *physical* row that
    now implements it.  Cost metrics:

    * ``modules_reconfigured`` — modules whose physical footprint changed;
    * ``fault_free_modules_reconfigured`` — the collateral damage the paper
      highlights: fault-free modules dragged into the repair;
    * ``cells_remapped`` — total cells whose physical position changed.

    The interstitial-redundancy equivalent of the same single-cell repair
    costs one remapped cell and zero fault-free modules.
    """

    array: SpareRowArray
    faulty_row: int
    row_remap: Dict[int, int]
    modules_reconfigured: Tuple[str, ...]
    fault_free_modules_reconfigured: Tuple[str, ...]
    cells_remapped: int


def plan_shifted_replacement(
    array: SpareRowArray, faults: Iterable[Square]
) -> ShiftedPlan:
    """Repair ``faults`` by shifting rows toward the spare row.

    A single spare row can bypass exactly one faulty row: all module rows at
    or past the faulty row slide one step toward the spare row, skipping the
    faulty row entirely.  Faults spread over two or more distinct module
    rows are irreparable with this architecture and raise
    :class:`IrreparableChipError`.  Faults in the spare row itself are
    irreparable too (the only spare resource is damaged).
    """
    fault_list = sorted(set(faults), key=lambda s: (s.y, s.x))
    if not fault_list:
        identity = {row: row for row in range(array.spare_row)}
        return ShiftedPlan(
            array=array,
            faulty_row=-1,
            row_remap=identity,
            modules_reconfigured=(),
            fault_free_modules_reconfigured=(),
            cells_remapped=0,
        )
    for fault in fault_list:
        if not (0 <= fault.x < array.cols and 0 <= fault.y < array.rows):
            raise ReconfigurationError(f"fault {fault} outside the array")
    rows_hit = sorted({fault.y for fault in fault_list})
    if array.spare_row in rows_hit:
        raise IrreparableChipError(
            "the spare row itself contains a fault; no repair resource left"
        )
    if len(rows_hit) > 1:
        raise IrreparableChipError(
            f"faults in {len(rows_hit)} distinct rows ({rows_hit}); a single "
            "spare row can bypass only one row"
        )
    faulty_row = rows_hit[0]

    row_remap: Dict[int, int] = {}
    for row in range(array.spare_row):
        row_remap[row] = row if row < faulty_row else row + 1

    faulty_module = array.module_of_row(faulty_row)
    shifted = [m for m in array.modules if m.row_end > faulty_row]
    collateral = tuple(m.name for m in shifted if m.name != faulty_module.name)
    cells_remapped = sum(
        array.cols for row in range(array.spare_row) if row_remap[row] != row
    )
    return ShiftedPlan(
        array=array,
        faulty_row=faulty_row,
        row_remap=row_remap,
        modules_reconfigured=tuple(m.name for m in shifted),
        fault_free_modules_reconfigured=collateral,
        cells_remapped=cells_remapped,
    )


def shifted_cost_by_fault_row(array: SpareRowArray) -> List[Dict[str, object]]:
    """Repair cost for a fault in each module row — the Figure 2 story.

    Returns one record per module row with the module name, the distance of
    the fault from the spare row, and all three cost metrics.  The farther
    the fault from the spare row, the more fault-free modules get dragged
    into the reconfiguration — interstitial redundancy's constant
    single-cell cost is the contrast.
    """
    records: List[Dict[str, object]] = []
    for row in range(array.spare_row):
        plan = plan_shifted_replacement(array, [Square(0, row)])
        records.append(
            {
                "fault_row": row,
                "module": array.module_of_row(row).name,
                "distance_to_spare_row": array.distance_to_spare_row(row),
                "modules_reconfigured": len(plan.modules_reconfigured),
                "fault_free_modules_reconfigured": len(
                    plan.fault_free_modules_reconfigured
                ),
                "cells_remapped": plan.cells_remapped,
            }
        )
    return records
