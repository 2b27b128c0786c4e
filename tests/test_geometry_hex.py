"""Unit and property tests for axial hex coordinates."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.hex import (
    DIRECTION_NAMES,
    HEX_DIRECTIONS,
    Hex,
    axial_to_pixel,
    hex_distance,
    hex_ring,
    hex_spiral,
)

coords = st.integers(min_value=-50, max_value=50)
hexes = st.builds(Hex, coords, coords)


class TestBasics:
    def test_cube_invariant(self):
        h = Hex(3, -5)
        assert h.q + h.r + h.s == 0
        assert h.s == 2

    def test_six_distinct_directions(self):
        assert len(set(HEX_DIRECTIONS)) == 6
        assert len(DIRECTION_NAMES) == 6

    def test_directions_sum_to_zero(self):
        total = Hex(0, 0)
        for dq, dr in HEX_DIRECTIONS:
            total = total + Hex(dq, dr)
        assert total == Hex(0, 0)

    def test_neighbors_are_distance_one(self):
        center = Hex(4, -2)
        for neighbor in center.neighbors():
            assert center.distance(neighbor) == 1

    def test_neighbor_by_direction_wraps(self):
        h = Hex(0, 0)
        assert h.neighbor(0) == h.neighbor(6)
        assert h.neighbor(-1) == h.neighbor(5)

    def test_scalar_multiplication_requires_int(self):
        with pytest.raises(GeometryError):
            Hex(1, 1) * 1.5

    def test_ordering_is_lexicographic(self):
        assert sorted([Hex(1, 0), Hex(0, 5), Hex(0, 1)]) == [
            Hex(0, 1),
            Hex(0, 5),
            Hex(1, 0),
        ]


class TestArithmeticProperties:
    @given(hexes, hexes)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(hexes, hexes)
    def test_subtraction_inverts_addition(self, a, b):
        assert (a + b) - b == a

    @given(hexes)
    def test_negation(self, a):
        assert a + (-a) == Hex(0, 0)

    @given(hexes, st.integers(min_value=-5, max_value=5))
    def test_scalar_distributes(self, a, k):
        assert a * k == Hex(a.q * k, a.r * k)
        assert k * a == a * k


class TestMetricProperties:
    @given(hexes, hexes)
    def test_symmetry(self, a, b):
        assert hex_distance(a, b) == hex_distance(b, a)

    @given(hexes, hexes)
    def test_identity(self, a, b):
        assert (hex_distance(a, b) == 0) == (a == b)

    @given(hexes, hexes, hexes)
    def test_triangle_inequality(self, a, b, c):
        assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)

    @given(hexes, hexes)
    def test_translation_invariance(self, a, b):
        offset = Hex(7, -3)
        assert hex_distance(a + offset, b + offset) == hex_distance(a, b)

    @given(hexes)
    def test_length_is_distance_from_origin(self, a):
        assert a.length() == hex_distance(a, Hex(0, 0))


class TestRings:
    def test_ring_zero_is_center(self):
        assert hex_ring(Hex(2, 2), 0) == [Hex(2, 2)]

    @pytest.mark.parametrize("radius", [1, 2, 3, 5])
    def test_ring_size(self, radius):
        ring = hex_ring(Hex(0, 0), radius)
        assert len(ring) == 6 * radius
        assert len(set(ring)) == len(ring)

    @pytest.mark.parametrize("radius", [1, 2, 4])
    def test_ring_cells_at_exact_distance(self, radius):
        center = Hex(-1, 3)
        for cell in hex_ring(center, radius):
            assert hex_distance(center, cell) == radius

    def test_ring_consecutive_cells_adjacent(self):
        ring = hex_ring(Hex(0, 0), 3)
        for a, b in zip(ring, ring[1:]):
            assert hex_distance(a, b) == 1

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            hex_ring(Hex(0, 0), -1)


class TestDisksAndSpirals:
    @pytest.mark.parametrize("radius", [0, 1, 2, 4])
    def test_disk_size_formula(self, radius):
        # A spiral lists every cell of the filled hexagon exactly once.
        disk = hex_spiral(Hex(0, 0), radius)
        assert len(disk) == len(set(disk)) == 3 * radius * (radius + 1) + 1

    @pytest.mark.parametrize("radius", [0, 1, 3])
    def test_spiral_equals_disk_as_set(self, radius):
        center = Hex(2, -1)
        window = [
            center + Hex(dq, dr)
            for dq in range(-radius, radius + 1)
            for dr in range(-radius, radius + 1)
        ]
        disk = {h for h in window if hex_distance(center, h) <= radius}
        assert set(hex_spiral(center, radius)) == disk

    def test_spiral_ordered_by_ring(self):
        spiral = hex_spiral(Hex(0, 0), 3)
        distances = [h.length() for h in spiral]
        assert distances == sorted(distances)

    def test_disk_membership_iff_within_radius(self):
        center = Hex(1, 1)
        disk = set(hex_spiral(center, 2))
        for h in hex_spiral(center, 3):
            assert (h in disk) == (hex_distance(center, h) <= 2)


class TestSymmetry:
    def test_ring_closed_under_rotation(self):
        # A 60-degree turn about the origin maps cube (q, r, s) to (-s, -q, -r).
        ring = set(hex_ring(Hex(0, 0), 2))
        assert {Hex(-h.s, -h.q) for h in ring} == ring


class TestPixelConversion:
    def test_neighbor_pixel_distance_constant(self):
        # Adjacent hexagons are exactly sqrt(3)*size apart (pointy-top).
        size = 2.0
        x0, y0 = axial_to_pixel(Hex(0, 0), size)
        for n in Hex(0, 0).neighbors():
            x, y = axial_to_pixel(n, size)
            assert math.hypot(x - x0, y - y0) == pytest.approx(
                math.sqrt(3.0) * size
            )
