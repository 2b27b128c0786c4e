"""Tests for finite hex regions and offset-coordinate conversion."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.hex import Hex, hex_ring, hex_spiral
from repro.geometry.hexgrid import (
    FrozenRegion,
    RectRegion,
    axial_to_offset,
    offset_to_axial,
)


class TestOffsetConversion:
    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_round_trip(self, col, row):
        assert axial_to_offset(offset_to_axial(col, row)) == (col, row)

    @given(st.builds(Hex, st.integers(-40, 40), st.integers(-40, 40)))
    def test_round_trip_from_axial(self, h):
        col, row = axial_to_offset(h)
        assert offset_to_axial(col, row) == h

    def test_same_row_neighbors_adjacent(self):
        # Cells (c, r) and (c+1, r) are always east/west neighbors.
        for row in range(4):
            a = offset_to_axial(2, row)
            b = offset_to_axial(3, row)
            assert a.distance(b) == 1

    def test_vertical_neighbors_adjacent(self):
        # In odd-r layout, (c, r) and (c, r+1) are always adjacent — the
        # property the DFT snake plan relies on.
        for col in range(4):
            for row in range(5):
                a = offset_to_axial(col, row)
                b = offset_to_axial(col, row + 1)
                assert a.distance(b) == 1


class TestRectRegion:
    def test_size(self):
        assert len(RectRegion(7, 5)) == 35

    def test_membership(self):
        region = RectRegion(4, 4)
        assert offset_to_axial(0, 0) in region
        assert offset_to_axial(3, 3) in region
        assert offset_to_axial(4, 0) not in region
        assert Hex(100, 100) not in region

    def test_connected(self):
        assert RectRegion(5, 5).is_connected()

    def test_interior_plus_boundary_partition(self):
        region = RectRegion(8, 8)
        interior = set(region.interior())
        assert len(interior) == 36  # the inner 6x6
        assert all(region.degree(c) < 6 for c in set(region.cells) - interior)

    def test_interior_cells_have_six_neighbors(self):
        region = RectRegion(8, 8)
        for cell in region.interior():
            assert region.degree(cell) == 6

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            RectRegion(0, 5)


class TestHexagonRegion:
    def test_boundary_is_outer_ring(self):
        region = FrozenRegion(hex_spiral(Hex(0, 0), 2))
        boundary = set(region.cells) - set(region.interior())
        assert boundary == set(hex_ring(Hex(0, 0), 2))


class TestSetAlgebra:
    def test_union(self):
        a = RectRegion(3, 3)
        b = FrozenRegion(hex_spiral(Hex(1, 1), 1))
        union = a.union(b)
        assert set(union.cells) == set(a.cells) | set(b.cells)
        assert len(union) < len(a) + len(b)

    def test_translation_preserves_size_and_shape(self):
        a = FrozenRegion(hex_spiral(Hex(0, 0), 2))
        moved = a.translated(Hex(10, -4))
        assert len(moved) == len(a)
        assert Hex(10, -4) in moved

    def test_equality_is_set_equality(self):
        a = RectRegion(2, 2)
        b = FrozenRegion(a.cells)
        assert a == b

    def test_empty_region_rejected(self):
        with pytest.raises(GeometryError):
            FrozenRegion([])
