"""Sublattice predicates used by the interstitial-redundancy patterns.

Each DTMB(s, p) architecture in the paper places spare cells on a periodic
sublattice of the hexagonal array (see DESIGN.md section 4).  This module
gives sublattices a first-class representation so the design layer can state
*which* cells are spares declaratively, and so tests can verify periodicity
and density independently of the chip model.

A sublattice here is the solution set of a single linear congruence
``a*q + b*r ≡ c (mod m)`` over axial coordinates.  All patterns used in the
paper fit this form:

===========  =====================  ================
Design       congruence             spare density
===========  =====================  ================
DTMB(1, 6)   q + 3r ≡ 0 (mod 7)     1/7
DTMB(2, 6)A  q ≡ 0 and r ≡ 0 (2)    1/4 (intersection)
DTMB(2, 6)B  q + 2r ≡ 0 (mod 4)     1/4
DTMB(3, 6)   q − r ≡ 0 (mod 3)      1/3
DTMB(4, 4)   q ≡ 0 (mod 2)          1/2
===========  =====================  ================

(DTMB(2,6)A needs the intersection of two congruences, provided by
:class:`IntersectionLattice`.)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.hex import Hex

__all__ = [
    "CongruenceLattice",
    "IntersectionLattice",
    "lattice_density",
    "lattice_period",
]


class CongruenceLattice:
    """Cells satisfying ``a*q + b*r ≡ c (mod m)``."""

    def __init__(self, a: int, b: int, m: int, c: int = 0):
        if m < 2:
            raise GeometryError(f"modulus must be >= 2, got {m}")
        if a % m == 0 and b % m == 0:
            raise GeometryError("degenerate congruence: a and b both ≡ 0 (mod m)")
        self.a = a
        self.b = b
        self.m = m
        self.c = c % m

    def __contains__(self, h: Hex) -> bool:
        return (self.a * h.q + self.b * h.r) % self.m == self.c

    def translated(self, offset: Hex) -> "CongruenceLattice":
        """The same lattice shifted by ``offset`` (a coset)."""
        new_c = (self.c + self.a * offset.q + self.b * offset.r) % self.m
        return CongruenceLattice(self.a, self.b, self.m, new_c)

    def density(self) -> Fraction:
        """Fraction of lattice cells belonging to this sublattice.

        For a single congruence with gcd(a, b, m) = g this is g/m; computed
        exactly by counting one fundamental ``m x m`` tile.
        """
        return lattice_density(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"CongruenceLattice({self.a}q + {self.b}r ≡ {self.c} mod {self.m})"


class IntersectionLattice:
    """Intersection of several congruence lattices (all must hold)."""

    def __init__(self, parts: Sequence[CongruenceLattice]):
        if not parts:
            raise GeometryError("intersection of zero lattices is undefined")
        self.parts: Tuple[CongruenceLattice, ...] = tuple(parts)

    def __contains__(self, h: Hex) -> bool:
        return all(h in part for part in self.parts)

    def translated(self, offset: Hex) -> "IntersectionLattice":
        return IntersectionLattice([p.translated(offset) for p in self.parts])

    def density(self) -> Fraction:
        return lattice_density(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"IntersectionLattice({list(self.parts)!r})"


def lattice_period(lat) -> int:
    """A tile size ``T`` guaranteed to be a period of the membership predicate.

    Membership of ``Hex(q, r)`` depends only on ``(q mod T, r mod T)``.
    """
    if isinstance(lat, CongruenceLattice):
        return lat.m
    if isinstance(lat, IntersectionLattice):
        period = 1
        for part in lat.parts:
            period = _lcm(period, part.m)
        return period
    raise GeometryError(f"unknown lattice type: {type(lat).__name__}")


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def lattice_density(lat) -> Fraction:
    """Exact fraction of the plane covered by ``lat``.

    Counts membership over one fundamental ``T x T`` tile where ``T`` is a
    period of the predicate; exact because the predicate is periodic in both
    axial directions with period dividing ``T``.
    """
    t = lattice_period(lat)
    hits = sum(1 for q in range(t) for r in range(t) if Hex(q, r) in lat)
    return Fraction(hits, t * t)
