"""Tests for the square-electrode grid substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.square import Square, SquareRegion, square_distance

squares = st.builds(Square, st.integers(-30, 30), st.integers(-30, 30))


class TestSquare:
    def test_four_neighbors(self):
        neighbors = Square(2, 3).neighbors()
        assert len(neighbors) == 4
        assert Square(2, 2) in neighbors
        assert Square(3, 3) in neighbors
        assert Square(3, 2) not in neighbors  # no diagonal moves

    @given(squares, squares)
    def test_distance_symmetry(self, a, b):
        assert square_distance(a, b) == square_distance(b, a)

    @given(squares, squares, squares)
    def test_triangle_inequality(self, a, b, c):
        assert square_distance(a, c) <= square_distance(a, b) + square_distance(b, c)

    @given(squares)
    def test_neighbors_at_distance_one(self, a):
        for n in a.neighbors():
            assert square_distance(a, n) == 1

    def test_arithmetic(self):
        assert Square(1, 2) + Square(3, 4) == Square(4, 6)
        assert Square(3, 4) - Square(1, 2) == Square(2, 2)


class TestSquareRegion:
    def test_size_and_iteration_order(self):
        region = SquareRegion(3, 2)
        assert len(region) == 6
        assert list(region)[0] == Square(0, 0)

    def test_membership_with_origin(self):
        region = SquareRegion(2, 2, x0=5, y0=5)
        assert Square(5, 5) in region
        assert Square(0, 0) not in region

    def test_boundary_interior_partition(self):
        region = SquareRegion(5, 5)
        interior = set(region.interior())
        assert len(interior) == 9  # the inner 3x3
        assert all(region.degree(s) < 4 for s in set(region.cells) - interior)

    def test_neighbors_in_clipped_at_edges(self):
        region = SquareRegion(3, 3)
        assert len(region.neighbors_in(Square(0, 0))) == 2
        assert len(region.neighbors_in(Square(1, 1))) == 4

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            SquareRegion(0, 3)
