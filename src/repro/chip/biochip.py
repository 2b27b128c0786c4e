"""The central biochip model: a finite array of primary and spare cells.

:class:`Biochip` is coordinate-agnostic — it works with any coordinate type
that provides ``neighbors()`` (both :class:`~repro.geometry.hex.Hex` and
:class:`~repro.geometry.square.Square` do), so the same model serves the
paper's hexagonal-electrode proposal and the square-electrode baseline chip.

The model tracks, per cell, its architectural role (primary/spare) and its
health (good/faulty), and exposes the adjacency queries every higher layer
needs: the reconfiguration engine asks "which fault-free spares are adjacent
to this faulty primary?", the fluidics layer asks "where can this droplet
move?", and the yield simulator flips health bits in bulk.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.chip.cell import Cell, CellHealth, CellRole
from repro.errors import ChipError

__all__ = ["Biochip"]


class Biochip:
    """A digital microfluidics-based biochip array.

    Parameters
    ----------
    cells:
        The cells of the array.  Coordinates must be unique.
    name:
        Optional identifier used in reports and serialized output.

    Notes
    -----
    Adjacency is *structural*: two cells are adjacent iff their coordinates
    are lattice neighbors and both are in the array.  Health does not change
    adjacency — a droplet simply may not be routed onto a faulty cell, which
    is a policy enforced by the fluidics and reconfiguration layers.

    The cell coordinates and roles are fixed once the chip is built; only
    health and labels change.  Per-chip memos rely on this: the role
    counts are taken once in ``__init__``, and
    :func:`~repro.yieldsim.defects.geometry_for` and
    :func:`~repro.yieldsim.scheduler.chip_identity` derive a chip's
    geometry and its cache identity once and reuse them for its lifetime.

    Catalog layouts are built once per process
    (:meth:`~repro.designs.interstitial.FitResult.build`): callers get
    copies of one pristine chip (:meth:`copy`), each with its own cells,
    while all copies share the immutable coordinate order and adjacency.
    """

    def __init__(self, cells: Iterable[Cell], name: str = "biochip"):
        self.name = name
        self._cells: Dict[Hashable, Cell] = {}
        for cell in cells:
            if cell.coord in self._cells:
                raise ChipError(f"duplicate cell coordinate {cell.coord}")
            self._cells[cell.coord] = cell
        if not self._cells:
            raise ChipError("a biochip must contain at least one cell")
        try:
            self._order: Tuple[Hashable, ...] = tuple(sorted(self._cells))
        except TypeError:
            kinds = sorted({type(c).__name__ for c in self._cells})
            raise ChipError(
                f"cell coordinates are not mutually comparable (mixed "
                f"coordinate systems? found: {kinds})"
            ) from None
        # Adjacency restricted to the array, computed once: the yield
        # simulator queries it millions of times.
        self._adjacency: Dict[Hashable, Tuple[Hashable, ...]] = {
            coord: tuple(n for n in coord.neighbors() if n in self._cells)
            for coord in self._order
        }
        # Roles are fixed, so the role counts are too.
        self._primary_count = sum(1 for c in self._cells.values() if c.is_primary)
        self._spare_count = len(self._cells) - self._primary_count

    # -- container protocol ---------------------------------------------------
    def __contains__(self, coord: Hashable) -> bool:
        return coord in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Cell]:
        for coord in self._order:
            yield self._cells[coord]

    def __getitem__(self, coord: Hashable) -> Cell:
        try:
            return self._cells[coord]
        except KeyError:
            raise ChipError(f"no cell at {coord} in chip {self.name!r}") from None

    @property
    def coords(self) -> Tuple[Hashable, ...]:
        """All cell coordinates in deterministic (sorted) order."""
        return self._order

    # -- role queries ----------------------------------------------------------
    def primaries(self) -> List[Cell]:
        """All primary cells, in deterministic order."""
        return [c for c in self if c.is_primary]

    def spares(self) -> List[Cell]:
        """All spare cells, in deterministic order."""
        return [c for c in self if c.is_spare]

    @property
    def primary_count(self) -> int:
        return self._primary_count

    @property
    def spare_count(self) -> int:
        return self._spare_count

    def redundancy_ratio(self) -> float:
        """Spares / primaries — the paper's RR metric (Definition 2)."""
        n = self.primary_count
        if n == 0:
            raise ChipError("redundancy ratio undefined: chip has no primary cells")
        return self.spare_count / n

    # -- adjacency ---------------------------------------------------------------
    def neighbors(self, coord: Hashable) -> Tuple[Hashable, ...]:
        """Coordinates physically adjacent to ``coord`` inside the array."""
        try:
            return self._adjacency[coord]
        except KeyError:
            raise ChipError(f"no cell at {coord} in chip {self.name!r}") from None

    def neighbor_cells(self, coord: Hashable) -> List[Cell]:
        """The :class:`Cell` objects adjacent to ``coord``."""
        return [self._cells[n] for n in self.neighbors(coord)]

    def adjacent_spares(self, coord: Hashable) -> List[Cell]:
        """Spare cells physically adjacent to ``coord``.

        This is the heart of *local reconfiguration*: a faulty primary can
        only be replaced by one of these cells (microfluidic locality).
        """
        return [c for c in self.neighbor_cells(coord) if c.is_spare]

    def adjacent_primaries(self, coord: Hashable) -> List[Cell]:
        """Primary cells physically adjacent to ``coord``."""
        return [c for c in self.neighbor_cells(coord) if c.is_primary]

    def degree(self, coord: Hashable) -> int:
        """Number of in-array neighbors."""
        return len(self.neighbors(coord))

    # -- health ---------------------------------------------------------------
    def mark_faulty(self, coord: Hashable) -> None:
        """Record a catastrophic (or out-of-tolerance parametric) fault."""
        self[coord].health = CellHealth.FAULTY

    def clear_faults(self) -> None:
        """Reset every cell to ``GOOD`` — fresh-from-fab state."""
        for cell in self._cells.values():
            cell.health = CellHealth.GOOD

    def apply_fault_map(self, coords: Iterable[Hashable]) -> None:
        """Mark every coordinate in ``coords`` faulty (others untouched)."""
        for coord in coords:
            self.mark_faulty(coord)

    def faulty_cells(self) -> List[Cell]:
        """All faulty cells, in deterministic order."""
        return [c for c in self if c.is_faulty]

    def faulty_primaries(self) -> List[Cell]:
        """Faulty primary cells — the ones local reconfiguration must repair."""
        return [c for c in self if c.is_primary and c.is_faulty]

    def good_spares(self) -> List[Cell]:
        """Fault-free spare cells — the repair resources."""
        return [c for c in self if c.is_spare and c.is_good]

    # -- labels -----------------------------------------------------------------
    def set_label(self, coord: Hashable, label: Optional[str]) -> None:
        self[coord].label = label

    # -- derived structure --------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Biochip":
        """Copy with duplicated cells (health included).

        The sorted order and the adjacency table depend only on the
        coordinates, which never change, so the copy shares them.
        """
        clone = Biochip.__new__(Biochip)
        clone.name = name or self.name
        clone._cells = {c.coord: Cell(c.coord, c.role, c.health, c.label) for c in self}
        clone._order = self._order
        clone._adjacency = self._adjacency
        clone._primary_count = self._primary_count
        clone._spare_count = self._spare_count
        return clone

    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """All adjacency edges, each reported once with endpoints sorted."""
        seen: Set[Tuple[Hashable, Hashable]] = set()
        for coord in self._order:
            for n in self._adjacency[coord]:
                edge = (coord, n) if coord <= n else (n, coord)
                seen.add(edge)
        return sorted(seen)

    def is_connected(self) -> bool:
        """True iff the array is a single connected component."""
        start = self._order[0]
        seen: Set[Hashable] = set()
        stack = [start]
        while stack:
            coord = stack.pop()
            if coord in seen:
                continue
            seen.add(coord)
            stack.extend(n for n in self._adjacency[coord] if n not in seen)
        return len(seen) == len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"Biochip({self.name!r}: {self.primary_count} primary, "
            f"{self.spare_count} spare, {len(self.faulty_cells())} faulty)"
        )
