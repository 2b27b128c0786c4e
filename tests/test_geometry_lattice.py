"""Tests for sublattice predicates (the spare-cell patterns)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.hex import Hex
from repro.geometry.lattice import (
    CongruenceLattice,
    IntersectionLattice,
    lattice_density,
)

hexes = st.builds(Hex, st.integers(-30, 30), st.integers(-30, 30))


class TestCongruenceLattice:
    def test_membership(self):
        lat = CongruenceLattice(a=1, b=3, m=7)
        assert Hex(0, 0) in lat
        assert Hex(7, 0) in lat
        assert Hex(1, 2) in lat  # 1 + 6 = 7
        assert Hex(1, 0) not in lat

    @given(hexes)
    def test_periodicity(self, h):
        lat = CongruenceLattice(a=1, b=3, m=7)
        assert (h in lat) == (h + Hex(7, 0) in lat)
        assert (h in lat) == (h + Hex(0, 7) in lat)

    def test_density_dtmb16(self):
        assert CongruenceLattice(1, 3, 7).density() == Fraction(1, 7)

    def test_density_dtmb44(self):
        assert CongruenceLattice(1, 0, 2).density() == Fraction(1, 2)

    def test_density_dtmb36(self):
        assert CongruenceLattice(1, -1, 3).density() == Fraction(1, 3)

    def test_density_with_common_factor(self):
        # 2q + 2r ≡ 0 (mod 4) has gcd 2: density 1/2.
        assert CongruenceLattice(2, 2, 4).density() == Fraction(1, 2)

    @given(hexes, hexes)
    def test_translation_moves_membership(self, h, offset):
        lat = CongruenceLattice(1, 2, 4)
        moved = lat.translated(offset)
        assert (h + offset in moved) == (h in lat)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            CongruenceLattice(0, 0, 3)
        with pytest.raises(GeometryError):
            CongruenceLattice(4, 0, 4)

    def test_small_modulus_rejected(self):
        with pytest.raises(GeometryError):
            CongruenceLattice(1, 1, 1)


class TestIntersectionLattice:
    def _dtmb26(self):
        return IntersectionLattice(
            [CongruenceLattice(1, 0, 2), CongruenceLattice(0, 1, 2)]
        )

    def test_membership_requires_both(self):
        lat = self._dtmb26()
        assert Hex(0, 0) in lat
        assert Hex(2, 4) in lat
        assert Hex(1, 0) not in lat
        assert Hex(0, 1) not in lat

    def test_density(self):
        assert self._dtmb26().density() == Fraction(1, 4)

    @given(hexes, hexes)
    def test_translation(self, h, offset):
        lat = self._dtmb26()
        moved = lat.translated(offset)
        assert (h + offset in moved) == (h in lat)

    def test_empty_intersection_rejected(self):
        with pytest.raises(GeometryError):
            IntersectionLattice([])


class TestDensityByCounting:
    @pytest.mark.parametrize(
        "a,b,m,expected",
        [(1, 3, 7, Fraction(1, 7)), (1, 2, 4, Fraction(1, 4)), (1, -1, 3, Fraction(1, 3))],
    )
    def test_density_matches_large_window_count(self, a, b, m, expected):
        lat = CongruenceLattice(a, b, m)
        window = 84  # multiple of all moduli involved
        hits = sum(
            1 for q in range(window) for r in range(window) if Hex(q, r) in lat
        )
        assert Fraction(hits, window * window) == expected == lattice_density(lat)
