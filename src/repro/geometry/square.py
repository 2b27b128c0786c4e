"""Square-grid coordinates for the first-generation biochip design.

The fabricated diagnostics chip of Figure 11 uses conventional *square*
electrodes: a droplet moves N/E/S/W to one of four adjacent cells.  The
paper's proposal replaces this with a hexagonal array, but reproducing the
baseline (non-redundant, square-electrode chip with yield 0.99^108 = 0.3378)
requires a square-grid substrate too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from repro.errors import GeometryError

__all__ = ["Square", "SQUARE_DIRECTIONS", "SquareRegion", "square_distance"]

# N, E, S, W — droplets on square-electrode chips move orthogonally only.
SQUARE_DIRECTIONS: Tuple[Tuple[int, int], ...] = ((0, -1), (1, 0), (0, 1), (-1, 0))


@dataclass(frozen=True, order=True)
class Square:
    """A cell location on the square-electrode grid."""

    x: int
    y: int

    def __add__(self, other: "Square") -> "Square":
        return Square(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Square") -> "Square":
        return Square(self.x - other.x, self.y - other.y)

    def neighbors(self) -> List["Square"]:
        """The four orthogonally adjacent cells (N, E, S, W)."""
        return [Square(self.x + dx, self.y + dy) for dx, dy in SQUARE_DIRECTIONS]

    def distance(self, other: "Square") -> int:
        return square_distance(self, other)

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return f"({self.x},{self.y})"


def square_distance(a: Square, b: Square) -> int:
    """Manhattan distance — minimum droplet moves on a square array."""
    return abs(a.x - b.x) + abs(a.y - b.y)


class SquareRegion:
    """A finite rectangular region of the square grid."""

    def __init__(self, cols: int, rows: int, x0: int = 0, y0: int = 0):
        if cols < 1 or rows < 1:
            raise GeometryError(f"region must be at least 1x1, got {cols}x{rows}")
        self.cols = cols
        self.rows = rows
        self.x0 = x0
        self.y0 = y0
        self._cells: Tuple[Square, ...] = tuple(
            Square(x0 + x, y0 + y) for y in range(rows) for x in range(cols)
        )
        self._cell_set: Set[Square] = set(self._cells)

    def __contains__(self, s: Square) -> bool:
        return s in self._cell_set

    def __iter__(self) -> Iterator[Square]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> Tuple[Square, ...]:
        return self._cells

    def neighbors_in(self, s: Square) -> List[Square]:
        """Neighbors of ``s`` inside the region."""
        return [n for n in s.neighbors() if n in self._cell_set]

    def degree(self, s: Square) -> int:
        return len(self.neighbors_in(s))

    def interior(self) -> List[Square]:
        return [s for s in self._cells if self.degree(s) == 4]

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"SquareRegion({self.cols}x{self.rows} @ ({self.x0},{self.y0}))"
