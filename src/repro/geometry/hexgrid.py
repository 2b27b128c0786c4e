"""Finite regions of the hexagonal lattice.

A biochip occupies a finite region of the infinite hex lattice.  The paper's
arrays are drawn as rectangles of close-packed hexagons:
:class:`RectRegion` is ``cols x rows`` in *offset* layout (odd-r shifted),
the shape of the arrays in Figures 3-6 and of the diagnostics chip;
:class:`FrozenRegion` is an arbitrary explicit cell set.

All regions are immutable, iterable in deterministic order, and support
membership tests and neighbor queries restricted to the region.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set, Tuple

from repro.errors import GeometryError
from repro.geometry.hex import Hex

__all__ = [
    "HexRegion",
    "RectRegion",
    "FrozenRegion",
    "offset_to_axial",
    "axial_to_offset",
]


def offset_to_axial(col: int, row: int) -> Hex:
    """Convert odd-r offset coordinates (col, row) to axial.

    Odd rows are shifted half a cell to the right — the standard "odd-r"
    horizontal layout for pointy-top hexagons.
    """
    q = col - (row - (row & 1)) // 2
    return Hex(q, row)


def axial_to_offset(h: Hex) -> Tuple[int, int]:
    """Convert axial coordinates to odd-r offset ``(col, row)``."""
    col = h.q + (h.r - (h.r & 1)) // 2
    return (col, h.r)


class HexRegion:
    """Abstract finite set of hex cells.

    Subclasses compute their cells and pass them to ``super().__init__``,
    which sorts and deduplicates them; this base class provides the shared
    set algebra and adjacency-restricted queries.
    """

    _cells: Tuple[Hex, ...]

    def __init__(self, cells: Iterable[Hex]):
        ordered = tuple(sorted(set(cells)))
        if not ordered:
            raise GeometryError("a region must contain at least one cell")
        self._cells = ordered
        self._cell_set: Set[Hex] = set(ordered)

    # -- container protocol -------------------------------------------------
    def __contains__(self, h: Hex) -> bool:
        return h in self._cell_set

    def __iter__(self) -> Iterator[Hex]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HexRegion):
            return NotImplemented
        return self._cell_set == other._cell_set

    def __hash__(self) -> int:
        return hash(self._cells)

    @property
    def cells(self) -> Tuple[Hex, ...]:
        """All cells, sorted lexicographically by ``(q, r)``."""
        return self._cells

    # -- region-restricted adjacency ----------------------------------------
    def neighbors_in(self, h: Hex) -> List[Hex]:
        """Neighbors of ``h`` that fall inside the region."""
        return [n for n in h.neighbors() if n in self._cell_set]

    def degree(self, h: Hex) -> int:
        """Number of in-region neighbors (6 for interior cells)."""
        return len(self.neighbors_in(h))

    def interior(self) -> List[Hex]:
        """Cells whose full 6-neighborhood lies inside the region."""
        return [h for h in self._cells if self.degree(h) == 6]

    # -- set algebra ----------------------------------------------------------
    def union(self, other: "HexRegion") -> "FrozenRegion":
        return FrozenRegion(self._cell_set | other._cell_set)

    def translated(self, offset: Hex) -> "FrozenRegion":
        """The region shifted by ``offset``."""
        return FrozenRegion(h + offset for h in self._cells)

    def is_connected(self) -> bool:
        """True iff the region is one connected component under adjacency."""
        seen: Set[Hex] = set()
        stack = [self._cells[0]]
        while stack:
            h = stack.pop()
            if h in seen:
                continue
            seen.add(h)
            stack.extend(n for n in self.neighbors_in(h) if n not in seen)
        return len(seen) == len(self._cells)


class FrozenRegion(HexRegion):
    """An arbitrary explicit set of cells (result of set algebra)."""


class RectRegion(HexRegion):
    """A ``cols x rows`` rectangle of close-packed hexagons (odd-r layout).

    This is the array shape drawn throughout the paper; rows are offset so
    the hexagons pack tightly.
    """

    def __init__(self, cols: int, rows: int):
        if cols < 1 or rows < 1:
            raise GeometryError(f"rectangle must be at least 1x1, got {cols}x{rows}")
        self.cols = cols
        self.rows = rows
        cells = [offset_to_axial(c, r) for r in range(rows) for c in range(cols)]
        super().__init__(cells)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"RectRegion({self.cols}x{self.rows})"
