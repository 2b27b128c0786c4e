"""Axial/cube coordinates on the hexagonal (triangular) lattice.

The latest-generation biochips modelled by the paper use *hexagonal
electrodes* arranged in a close-packed 2-D array; every cell has six
physically adjacent cells (Figure 1(b) of the paper).  This module provides
the coordinate algebra everything else is built on.

We use **axial coordinates** ``(q, r)``: the implicit third cube coordinate
is ``s = -q - r`` so that ``q + r + s == 0``.  The six neighbor directions,
in counter-clockwise order starting from "east", are::

    E=(+1, 0)  NE=(+1, -1)  NW=(0, -1)  W=(-1, 0)  SW=(-1, +1)  SE=(0, +1)

Distances are the standard hex (cube) metric; rings and spirals are
provided because the redundancy-pattern code and the visualization layer
both need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import GeometryError

__all__ = [
    "Hex",
    "HEX_DIRECTIONS",
    "DIRECTION_NAMES",
    "hex_distance",
    "hex_ring",
    "hex_spiral",
    "axial_to_pixel",
]


# Counter-clockwise starting at east.  Order matters: rotation and ring
# walking rely on it.
HEX_DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)

DIRECTION_NAMES: Tuple[str, ...] = ("E", "NE", "NW", "W", "SW", "SE")


@dataclass(frozen=True, order=True)
class Hex:
    """A cell location in axial coordinates on the hexagonal lattice.

    Instances are immutable, hashable and totally ordered (lexicographic on
    ``(q, r)``), so they can be used as dict keys and sorted for
    deterministic iteration.
    """

    q: int
    r: int

    # -- cube view ---------------------------------------------------------
    @property
    def s(self) -> int:
        """Implicit third cube coordinate (``q + r + s == 0``)."""
        return -self.q - self.r

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Hex") -> "Hex":
        return Hex(self.q + other.q, self.r + other.r)

    def __sub__(self, other: "Hex") -> "Hex":
        return Hex(self.q - other.q, self.r - other.r)

    def __mul__(self, k: int) -> "Hex":
        if not isinstance(k, int):
            raise GeometryError(f"hex coordinates scale by integers only, got {k!r}")
        return Hex(self.q * k, self.r * k)

    __rmul__ = __mul__

    def __neg__(self) -> "Hex":
        return Hex(-self.q, -self.r)

    # -- neighborhood ------------------------------------------------------
    def neighbor(self, direction: int) -> "Hex":
        """The adjacent cell in ``direction`` (0..5, CCW from east)."""
        dq, dr = HEX_DIRECTIONS[direction % 6]
        return Hex(self.q + dq, self.r + dr)

    def neighbors(self) -> List["Hex"]:
        """All six physically adjacent cells, CCW from east."""
        return [Hex(self.q + dq, self.r + dr) for dq, dr in HEX_DIRECTIONS]

    # -- metric ------------------------------------------------------------
    def distance(self, other: "Hex") -> int:
        """Hex-lattice (minimum number of moves) distance to ``other``."""
        return hex_distance(self, other)

    def length(self) -> int:
        """Distance from the origin."""
        return (abs(self.q) + abs(self.r) + abs(self.s)) // 2

    def __str__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"({self.q},{self.r})"


def hex_distance(a: Hex, b: Hex) -> int:
    """Minimum number of single-cell droplet moves between ``a`` and ``b``."""
    dq = a.q - b.q
    dr = a.r - b.r
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def hex_ring(center: Hex, radius: int) -> List[Hex]:
    """The cells at exactly ``radius`` moves from ``center``.

    ``radius == 0`` returns ``[center]``.  For ``radius >= 1`` the ring has
    ``6 * radius`` cells: it starts at the corner ``radius`` steps from
    ``center`` in direction 4 (SW) and walks ``radius`` steps in each of
    the directions 0 to 5 (E, NE, NW, W, SW, SE) in turn, counter-clockwise.
    """
    if radius < 0:
        raise GeometryError(f"ring radius must be >= 0, got {radius}")
    if radius == 0:
        return [center]
    results: List[Hex] = []
    # Start at the corner reached by walking `radius` steps in direction 4.
    cursor = center + Hex(*HEX_DIRECTIONS[4]) * radius
    for direction in range(6):
        for _ in range(radius):
            results.append(cursor)
            cursor = cursor.neighbor(direction)
    return results


def hex_spiral(center: Hex, max_radius: int) -> List[Hex]:
    """All cells within ``max_radius`` of ``center``, ordered by ring."""
    if max_radius < 0:
        raise GeometryError(f"spiral radius must be >= 0, got {max_radius}")
    cells: List[Hex] = [center]
    for radius in range(1, max_radius + 1):
        cells.extend(hex_ring(center, radius))
    return cells


def axial_to_pixel(h: Hex, size: float = 1.0) -> Tuple[float, float]:
    """Center of cell ``h`` in Cartesian coordinates ("pointy-top" layout).

    ``size`` is the hexagon circumradius.  Used by the SVG renderer.
    """
    x = size * (math.sqrt(3.0) * h.q + math.sqrt(3.0) / 2.0 * h.r)
    y = size * (1.5 * h.r)
    return (x, y)
