"""Grid geometry substrate: hexagonal and square lattices.

Public surface:

* :class:`~repro.geometry.hex.Hex` — axial hex coordinates with the
  neighborhood and metric algebra;
* :class:`~repro.geometry.hexgrid.RectRegion` and
  :class:`~repro.geometry.hexgrid.FrozenRegion` — finite biochip footprints;
* :class:`~repro.geometry.lattice.CongruenceLattice` — periodic spare-cell
  patterns;
* :class:`~repro.geometry.square.Square` — the square-electrode baseline.
"""

from repro.geometry.hex import (
    DIRECTION_NAMES,
    HEX_DIRECTIONS,
    Hex,
    axial_to_pixel,
    hex_distance,
    hex_ring,
    hex_spiral,
)
from repro.geometry.hexgrid import (
    FrozenRegion,
    HexRegion,
    RectRegion,
    axial_to_offset,
    offset_to_axial,
)
from repro.geometry.lattice import (
    CongruenceLattice,
    IntersectionLattice,
    lattice_density,
)
from repro.geometry.square import (
    SQUARE_DIRECTIONS,
    Square,
    SquareRegion,
    square_distance,
)

__all__ = [
    "Hex",
    "HEX_DIRECTIONS",
    "DIRECTION_NAMES",
    "hex_distance",
    "hex_ring",
    "hex_spiral",
    "axial_to_pixel",
    "HexRegion",
    "RectRegion",
    "FrozenRegion",
    "offset_to_axial",
    "axial_to_offset",
    "CongruenceLattice",
    "IntersectionLattice",
    "lattice_density",
    "Square",
    "SquareRegion",
    "SQUARE_DIRECTIONS",
    "square_distance",
]
