"""Cells of a digital microfluidic biochip.

A cell is one electrode site of the array (Figure 1 of the paper): the unit
that holds, moves, mixes or splits a droplet.  The defect-tolerance study
partitions cells into *primary* cells (the working array) and *spare* cells
(interstitial redundancy), and tracks a health state per cell.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.errors import ChipError

__all__ = ["CellRole", "CellHealth", "Cell"]


class CellRole(enum.Enum):
    """Architectural role of a cell in a defect-tolerant array."""

    PRIMARY = "primary"
    SPARE = "spare"

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return self.value


class CellHealth(enum.Enum):
    """Health of an individual cell after manufacturing / testing.

    ``GOOD`` cells operate normally.  ``FAULTY`` cells carry a catastrophic
    fault (dielectric breakdown, electrode short, open connection — Section 4
    of the paper) or a parametric fault whose deviation exceeds tolerance;
    either way the cell cannot be used and must be repaired around.
    """

    GOOD = "good"
    FAULTY = "faulty"

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return self.value


@dataclass
class Cell:
    """One electrode site of the microfluidic array.

    Parameters
    ----------
    coord:
        Location on the lattice — a :class:`~repro.geometry.hex.Hex` for the
        hexagonal-electrode chips the paper proposes, or a
        :class:`~repro.geometry.square.Square` for the first-generation
        fabricated chip of Figure 11.
    role:
        :class:`CellRole.PRIMARY` or :class:`CellRole.SPARE`.
    health:
        Current :class:`CellHealth`; new chips start ``GOOD`` everywhere.
    label:
        Optional human-readable annotation ("mixer", "detector",
        "sample source"...) used by the assay layer and the renderers.

    Once the cell is part of a :class:`~repro.chip.biochip.Biochip`, its
    ``coord`` and ``role`` must not change: the chip's geometry
    (:func:`~repro.yieldsim.defects.geometry_for`) and cache identity
    (:func:`~repro.yieldsim.scheduler.chip_identity`) are computed once
    per chip from them.  ``health`` and ``label`` may change freely and
    belong to one chip only: every copy of a chip gets its own cells, while
    the copies share the immutable coordinate structure.  Catalog layouts
    are built once per process and handed out as such copies.
    """

    coord: Hashable
    role: CellRole = CellRole.PRIMARY
    health: CellHealth = CellHealth.GOOD
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.role, CellRole):
            raise ChipError(f"role must be a CellRole, got {self.role!r}")
        if not isinstance(self.health, CellHealth):
            raise ChipError(f"health must be a CellHealth, got {self.health!r}")

    # -- predicates ----------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        return self.role is CellRole.PRIMARY

    @property
    def is_spare(self) -> bool:
        return self.role is CellRole.SPARE

    @property
    def is_good(self) -> bool:
        return self.health is CellHealth.GOOD

    @property
    def is_faulty(self) -> bool:
        return self.health is CellHealth.FAULTY

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        mark = "!" if self.is_faulty else ""
        return f"{self.role.value[0].upper()}{mark}@{self.coord}"
