"""Boundary spare-row redundancy — the baseline the paper argues against.

Figure 2 of the paper shows a microfluidic array with one spare row and
several microfluidic modules placed in the primary rows.  Because of
*microfluidic locality* (droplets only move to physically adjacent cells,
there is no programmable interconnect), an interior faulty cell cannot be
replaced directly by a boundary spare: the repair is a *shifted
replacement* in which every row between the fault and the spare row slides
over by one, dragging fault-free modules into reconfiguration.

This module provides the substrate — a rectangular array with modules
occupying bands of rows and a spare row at one edge — and
:mod:`repro.reconfig.shifted` implements the replacement procedure and its
cost accounting, which :mod:`repro.experiments.fig2` uses to quantify the
reconfiguration-cost blow-up that motivates interstitial redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import DesignError

__all__ = ["ModulePlacement", "SpareRowArray"]


@dataclass(frozen=True)
class ModulePlacement:
    """A microfluidic module occupying a contiguous band of rows.

    In Figure 2 each module (mixer, storage, transport bus...) is a block of
    the array; ``rows`` is the half-open range ``[row_start, row_end)`` it
    occupies, spanning the full width of the array.
    """

    name: str
    row_start: int
    row_end: int

    def __post_init__(self) -> None:
        if self.row_end <= self.row_start:
            raise DesignError(
                f"module {self.name!r}: empty row range "
                f"[{self.row_start}, {self.row_end})"
            )

    @property
    def rows(self) -> range:
        return range(self.row_start, self.row_end)

    @property
    def height(self) -> int:
        return self.row_end - self.row_start

    def contains_row(self, row: int) -> bool:
        return self.row_start <= row < self.row_end


class SpareRowArray:
    """A ``cols``-wide array of stacked modules plus one spare row.

    Row indices grow toward the spare row: modules occupy rows
    ``0 .. total_module_rows - 1`` contiguously (in the order given), and
    the spare row is the last row, ``spare_row == total_module_rows``.
    Module 1 in the paper's figure is the one *adjacent* to the spare row —
    i.e. the last module in ``modules``.
    """

    def __init__(self, cols: int, modules: Sequence[ModulePlacement]):
        if cols < 1:
            raise DesignError(f"array width must be >= 1, got {cols}")
        if not modules:
            raise DesignError("a spare-row array needs at least one module")
        expected_start = 0
        for module in modules:
            if module.row_start != expected_start:
                raise DesignError(
                    f"module {module.name!r} starts at row {module.row_start}, "
                    f"expected {expected_start}: modules must tile rows contiguously"
                )
            expected_start = module.row_end
        self.cols = cols
        self.modules: Tuple[ModulePlacement, ...] = tuple(modules)
        self.spare_row: int = expected_start
        self.rows: int = expected_start + 1  # modules + the spare row

    @classmethod
    def uniform(cls, cols: int, module_heights: Sequence[int], names: Sequence[str] = ()) -> "SpareRowArray":
        """Stack modules of the given heights; names default to Module k.

        Following the paper's figure, the *last* module is adjacent to the
        spare row and gets the lowest number: heights ``[h3, h2, h1]``
        produce Module 3 (farthest) .. Module 1 (adjacent).
        """
        count = len(module_heights)
        if not names:
            names = [f"Module {count - i}" for i in range(count)]
        if len(names) != count:
            raise DesignError("one name per module height required")
        modules = []
        row = 0
        for name, height in zip(names, module_heights):
            modules.append(ModulePlacement(name, row, row + height))
            row += height
        return cls(cols, modules)

    # -- queries -----------------------------------------------------------
    def module_of_row(self, row: int) -> ModulePlacement:
        """The module occupying ``row`` (the spare row belongs to no module)."""
        for module in self.modules:
            if module.contains_row(row):
                return module
        raise DesignError(f"row {row} is not inside any module")

    def distance_to_spare_row(self, row: int) -> int:
        """How many rows separate ``row`` from the spare row."""
        if not (0 <= row < self.rows):
            raise DesignError(f"row {row} outside array of {self.rows} rows")
        return self.spare_row - row

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        names = ", ".join(m.name for m in self.modules)
        return f"SpareRowArray({self.cols} cols; {names}; spare row {self.spare_row})"
