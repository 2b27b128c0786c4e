"""Construction of interstitial-redundancy arrays from design specs.

Two builders are provided:

* :func:`build_chip` — apply a design's spare lattice to a given region;
* :func:`build_with_primary_count` — find a rectangular array (and lattice
  coset) containing *exactly* ``n`` primary cells, which is how the paper
  parameterizes its yield plots ("n is the number of primary cells").

The coset search matters: sliding the spare pattern by a lattice translation
changes how the pattern is clipped at the array boundary, and therefore the
exact primary count for a fixed footprint.  :func:`rect_role_counts` gives
those per-coset counts without building anything.

Catalog layouts are built once per process: fits and the pristine chip of
each fit sit in small bounded memos, and :meth:`FitResult.build` hands out
copies of that chip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.chip.biochip import Biochip
from repro.chip.builders import chip_from_lattice
from repro.designs.spec import DesignSpec
from repro.errors import DesignError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import HexRegion, RectRegion
from repro.geometry.lattice import lattice_period

__all__ = [
    "build_chip",
    "build_with_primary_count",
    "build_flower_chip",
    "rect_role_counts",
    "FitResult",
]

#: Bound of each layout memo.  A whole ``repro all`` uses about a dozen
#: distinct layouts; ``repro serve`` accepts any ``n``, so the memos must
#: stay bounded.
_LAYOUT_MEMO = 64


def build_chip(
    spec: DesignSpec,
    region: HexRegion,
    offset: Hex = Hex(0, 0),
    name: Optional[str] = None,
) -> Biochip:
    """Build a chip for ``spec`` on ``region``.

    ``offset`` shifts the spare pattern (selects a coset); the architecture's
    (s, p) properties are translation-invariant, so any coset is a valid
    instance of the design.
    """
    lattice = spec.spare_lattice.translated(offset)
    return chip_from_lattice(region, lattice, name=name or spec.name)


@dataclass(frozen=True)
class FitResult:
    """Outcome of the :func:`build_with_primary_count` search."""

    spec: DesignSpec
    cols: int
    rows: int
    offset: Hex
    primary_count: int
    spare_count: int

    def build(self, name: Optional[str] = None) -> Biochip:
        """A fresh chip of the layout this fit describes.

        The layout is built once per process and kept pristine; each call
        returns a :meth:`~repro.chip.biochip.Biochip.copy` of it, with its
        own cells (health and labels) but sharing the immutable coordinate
        order and adjacency.
        """
        return _template(self).copy(
            name or f"{self.spec.name} n={self.primary_count}"
        )


@functools.lru_cache(maxsize=_LAYOUT_MEMO)
def _template(fit: FitResult) -> Biochip:
    """The pristine chip of ``fit``; only ever copied, never handed out."""
    return build_chip(fit.spec, RectRegion(fit.cols, fit.rows), fit.offset)


def _candidate_shapes(total_cells_target: float, max_dim: int) -> Iterator[Tuple[int, int]]:
    """Rectangle shapes ordered by squareness, near the target cell count."""
    shapes: List[Tuple[float, int, int]] = []
    for cols in range(2, max_dim + 1):
        for rows in range(2, max_dim + 1):
            total = cols * rows
            # Keep shapes whose footprint could plausibly hold the target
            # primary count: within a generous band around the ideal size.
            if total < total_cells_target * 0.9 or total > total_cells_target * 1.6:
                continue
            squareness = abs(cols - rows)
            shapes.append((squareness, cols, rows))
    shapes.sort()
    for _, cols, rows in shapes:
        yield (cols, rows)


@functools.lru_cache(maxsize=_LAYOUT_MEMO)
def _coset_table(lattice, period: int) -> np.ndarray:
    """Spare membership of every residue class, for every lattice coset.

    Row ``dq * period + dr`` is the coset translated by ``Hex(dq, dr)``;
    column ``i * period + j`` is the residue class ``(q mod period,
    r mod period) == (i, j)``.  ``h`` lies in the coset iff ``h - offset``
    lies in the base lattice, so each row is the base tile rolled by the
    offset.  Memoized per lattice, so the table is shared and read-only.
    """
    base = np.array(
        [[Hex(i, j) in lattice for j in range(period)] for i in range(period)],
        dtype=np.int64,
    )
    table = np.stack(
        [
            np.roll(base, (dq, dr), axis=(0, 1)).ravel()
            for dq in range(period)
            for dr in range(period)
        ]
    )
    table.flags.writeable = False
    return table


def _residue_counts(cols: int, rows: int, period: int) -> np.ndarray:
    """Cells of ``RectRegion(cols, rows)`` per axial residue class."""
    row = np.arange(rows)[:, None]
    q = np.arange(cols)[None, :] - (row - (row & 1)) // 2
    residue = (q % period) * period + row % period
    return np.bincount(residue.ravel(), minlength=period * period)


def rect_role_counts(
    spec: DesignSpec, cols: int, rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(primaries, spares)`` of ``spec`` on ``RectRegion(cols, rows)``.

    One entry per lattice coset ``Hex(dq, dr)`` at index ``dq * T + dr``
    (``T`` the lattice period), so index 0 is the untranslated pattern
    that :func:`build_chip` lays by default.  Nothing is built: the
    region's cells are counted per residue class and each coset's spare
    count is one product with the coset membership table.
    """
    period = lattice_period(spec.spare_lattice)
    spares = _coset_table(spec.spare_lattice, period) @ _residue_counts(
        cols, rows, period
    )
    return cols * rows - spares, spares


@functools.lru_cache(maxsize=_LAYOUT_MEMO)
def build_with_primary_count(
    spec: DesignSpec,
    n: int,
    max_dim: int = 64,
) -> FitResult:
    """Find a rectangular instance of ``spec`` with exactly ``n`` primaries.

    Searches rectangle shapes (most square first) and, per shape, every
    lattice coset ``Hex(dq, dr)`` with ``0 <= dq, dr < T`` in row-major
    order, where ``T`` is the lattice period; the first exact fit wins, so
    repeated calls return the same layout.  The search never builds a
    region (see :func:`rect_role_counts`), and its result is memoized per
    process.  Raises :class:`DesignError` if no footprint up to
    ``max_dim`` per side fits.
    """
    if n < 1:
        raise DesignError(f"primary count must be >= 1, got {n}")
    density = float(spec.primary_density)
    target_cells = n / density
    period = lattice_period(spec.spare_lattice)
    for cols, rows in _candidate_shapes(target_cells, max_dim):
        primaries, spares = rect_role_counts(spec, cols, rows)
        fits = np.flatnonzero((primaries == n) & (spares > 0))
        if fits.size:
            k = int(fits[0])
            dq, dr = divmod(k, period)
            return FitResult(
                spec, cols, rows, Hex(dq, dr), int(primaries[k]), int(spares[k])
            )
    raise DesignError(
        f"no {spec.name} rectangle up to {max_dim}x{max_dim} has exactly "
        f"{n} primary cells"
    )


def build_flower_chip(n: int, name: Optional[str] = None) -> Biochip:
    """A DTMB(1,6) array made of exactly ``n / 6`` *complete* flowers.

    The paper's analytical model views DTMB(1,6) as independent 7-cell
    clusters ("flowers": one spare and its six primaries).  Rectangular
    footprints clip flowers at the boundary, stranding some primaries with
    no spare; this builder instead assembles whole flowers — the spare
    centers nearest the origin on the DTMB(1,6) superlattice — so the
    cluster model is *exact* and Monte-Carlo can validate it directly.

    ``n`` must be a positive multiple of 6.
    """
    if n < 6 or n % 6 != 0:
        raise DesignError(
            f"flower chip needs a positive multiple of 6 primaries, got {n}"
        )
    from repro.chip.cell import Cell, CellRole
    from repro.designs.catalog import DTMB_1_6
    from repro.geometry.hex import hex_spiral

    lattice = DTMB_1_6.spare_lattice
    flowers = n // 6
    centers: List[Hex] = []
    radius = 4
    while len(centers) < flowers:
        centers = [h for h in hex_spiral(Hex(0, 0), radius) if h in lattice]
        radius += 2
    centers = centers[:flowers]
    cells: List[Cell] = []
    for center in centers:
        cells.append(Cell(center, CellRole.SPARE))
        cells.extend(Cell(nb, CellRole.PRIMARY) for nb in center.neighbors())
    return Biochip(cells, name=name or f"DTMB(1,6) flowers n={n}")
