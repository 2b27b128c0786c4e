"""Logical-to-physical coordinate remapping after reconfiguration.

A repaired chip presents the *logical* array (the layout the bioassay was
compiled for) on top of *physical* cells: every healthy primary maps to
itself, and every repaired faulty primary maps to its assigned spare.  The
fluidics and assay layers route droplets through logical coordinates and
translate at the electrode-actuation boundary, exactly as the biochip's
microcontroller would after reconfiguration.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.chip.biochip import Biochip
from repro.errors import ReconfigurationError
from repro.reconfig.local import RepairPlan

__all__ = ["CellRemap"]


class CellRemap:
    """Bijective map from logical primary coordinates to physical cells.

    Built from a chip and a (complete or partial) :class:`RepairPlan`.
    Coordinates not repaired map to themselves; faulty primaries left
    unrepaired by the plan have *no* physical image and looking them up
    raises, which surfaces accidental use of a dead cell immediately.
    """

    def __init__(self, chip: Biochip, plan: RepairPlan):
        plan.validate_against(chip)
        self._chip = chip
        self._to_physical: Dict[Hashable, Hashable] = dict(plan.assignment)
        self._dead: Tuple[Hashable, ...] = plan.unrepaired
        self._to_logical: Dict[Hashable, Hashable] = {
            phys: logical for logical, phys in self._to_physical.items()
        }

    @property
    def remapped_count(self) -> int:
        """How many logical cells are served by a spare."""
        return len(self._to_physical)

    @property
    def dead_cells(self) -> Tuple[Hashable, ...]:
        """Logical coordinates with no working physical cell."""
        return self._dead

    def physical(self, logical: Hashable) -> Hashable:
        """The physical cell serving ``logical``."""
        if logical in self._dead:
            raise ReconfigurationError(
                f"logical cell {logical} is faulty and was not repaired"
            )
        phys = self._to_physical.get(logical, logical)
        cell = self._chip[phys]
        if cell.is_faulty:
            raise ReconfigurationError(
                f"physical cell {phys} serving {logical} is faulty; "
                "the repair plan is stale"
            )
        return phys

    def logical(self, physical: Hashable) -> Hashable:
        """The logical coordinate served by ``physical`` (inverse map)."""
        return self._to_logical.get(physical, physical)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"CellRemap({self.remapped_count} remapped, "
            f"{len(self._dead)} dead)"
        )
