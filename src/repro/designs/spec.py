"""Declarative specification of a DTMB(s, p) interstitial-redundancy design.

Definition 1 of the paper: a defect-tolerant design DTMB(s, p) has
interstitial spare cells such that each non-boundary primary cell can be
replaced by any one of ``s`` spare cells, and each spare cell can replace any
one of ``p`` primary cells.  Definition 2: the redundancy ratio RR is
spares / primaries, which for large arrays approaches ``s / p``.

A :class:`DesignSpec` captures a design as a *spare-cell sublattice* plus the
advertised ``(s, p)`` pair; the construction and empirical verification of
those properties live in :mod:`repro.designs.interstitial` and
:mod:`repro.designs.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from repro.errors import DesignError
from repro.geometry.lattice import CongruenceLattice, IntersectionLattice

__all__ = ["DesignSpec"]

Lattice = Union[CongruenceLattice, IntersectionLattice]


@dataclass(frozen=True)
class DesignSpec:
    """An interstitial-redundancy architecture DTMB(s, p).

    Parameters
    ----------
    name:
        Catalog identifier, e.g. ``"DTMB(2,6)"``.
    s:
        Number of spare cells adjacent to each non-boundary primary cell.
    p:
        Number of primary cells adjacent to each interior spare cell.
    spare_lattice:
        Sublattice predicate selecting the spare coordinates.
    description:
        One-line summary shown in reports.
    """

    name: str
    s: int
    p: int
    spare_lattice: Lattice
    description: str = ""

    def __post_init__(self) -> None:
        if self.s < 1:
            raise DesignError(f"{self.name}: s must be >= 1, got {self.s}")
        if self.p < 1:
            raise DesignError(f"{self.name}: p must be >= 1, got {self.p}")
        if self.p > 6:
            raise DesignError(
                f"{self.name}: p cannot exceed 6 on a hexagonal array, got {self.p}"
            )

    @property
    def redundancy_ratio(self) -> Fraction:
        """Asymptotic RR = s/p (Definition 2), as an exact fraction."""
        return Fraction(self.s, self.p)

    @property
    def spare_density(self) -> Fraction:
        """Fraction of array cells that are spares, from the lattice."""
        return self.spare_lattice.density()

    @property
    def primary_density(self) -> Fraction:
        return 1 - self.spare_density

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return self.name
