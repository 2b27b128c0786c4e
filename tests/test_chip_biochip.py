"""Tests for the central Biochip model."""

from __future__ import annotations

import pytest

from repro.chip.biochip import Biochip
from repro.chip.cell import Cell, CellHealth, CellRole
from repro.designs.catalog import ALL_DESIGNS
from repro.designs.interstitial import build_chip
from repro.errors import ChipError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion


def tiny_chip():
    """A 7-cell flower: spare at origin, six primaries around it."""
    cells = [Cell(Hex(0, 0), CellRole.SPARE)]
    cells += [Cell(n, CellRole.PRIMARY) for n in Hex(0, 0).neighbors()]
    return Biochip(cells, name="flower")


class TestConstruction:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ChipError):
            Biochip([Cell(Hex(0, 0)), Cell(Hex(0, 0))])

    def test_empty_rejected(self):
        with pytest.raises(ChipError):
            Biochip([])

    def test_counts(self):
        chip = tiny_chip()
        assert len(chip) == 7
        assert chip.primary_count == 6
        assert chip.spare_count == 1

    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    def test_role_counts_equal_a_fresh_walk(self, spec):
        chip = build_chip(spec, RectRegion(9, 7))
        for each in (chip, chip.copy()):
            assert each.primary_count == len(each.primaries())
            assert each.spare_count == len(each.spares())
            assert each.primary_count + each.spare_count == len(each)

    def test_iteration_deterministic(self):
        chip = tiny_chip()
        assert [c.coord for c in chip] == sorted(c.coord for c in chip)

    def test_getitem_unknown_coordinate(self):
        with pytest.raises(ChipError):
            tiny_chip()[Hex(10, 10)]


class TestAdjacency:
    def test_spare_adjacent_to_all_primaries(self):
        chip = tiny_chip()
        assert len(chip.adjacent_primaries(Hex(0, 0))) == 6
        assert chip.adjacent_spares(Hex(0, 0)) == []

    def test_primary_sees_the_spare(self):
        chip = tiny_chip()
        for cell in chip.primaries():
            spares = chip.adjacent_spares(cell.coord)
            assert [s.coord for s in spares] == [Hex(0, 0)]

    def test_neighbors_restricted_to_array(self):
        chip = tiny_chip()
        # A rim primary has 3 in-array neighbors (two rim mates + spare).
        rim = Hex(1, 0)
        assert set(chip.neighbors(rim)) <= set(c.coord for c in chip)
        assert len(chip.neighbors(rim)) == 3

    def test_boundary_detection(self):
        chip = tiny_chip()
        assert chip.degree(Hex(0, 0)) == 6
        assert chip.degree(Hex(1, 0)) < 6

    def test_edges_unique_and_sorted(self):
        chip = tiny_chip()
        edges = chip.edges()
        assert len(edges) == len(set(edges))
        assert all(a <= b for a, b in edges)
        # Flower: 6 spokes + 6 rim edges.
        assert len(edges) == 12

    def test_connectivity(self):
        assert tiny_chip().is_connected()
        two_islands = Biochip([Cell(Hex(0, 0)), Cell(Hex(5, 5))])
        assert not two_islands.is_connected()


class TestHealth:
    def test_mark_and_clear(self):
        chip = tiny_chip()
        chip.mark_faulty(Hex(1, 0))
        assert chip[Hex(1, 0)].is_faulty
        assert len(chip.faulty_cells()) == 1
        assert len(chip.faulty_primaries()) == 1
        chip.clear_faults()
        assert not chip.faulty_cells()

    def test_faulty_spare_not_in_good_spares(self):
        chip = tiny_chip()
        chip.mark_faulty(Hex(0, 0))
        assert chip.good_spares() == []
        assert chip.faulty_primaries() == []

    def test_apply_fault_map(self):
        chip = tiny_chip()
        chip.apply_fault_map([Hex(1, 0), Hex(0, 1)])
        assert len(chip.faulty_cells()) == 2



class TestDerived:
    def test_copy_is_deep(self):
        chip = tiny_chip()
        clone = chip.copy()
        clone.mark_faulty(Hex(1, 0))
        assert not chip.faulty_cells()
        assert clone.faulty_cells()

    def test_copy_shares_geometry_not_health(self):
        chip = Biochip(
            [Cell(h, CellRole.PRIMARY) for h in RectRegion(5, 4)], name="rect"
        )
        clone = chip.copy(name="clone")
        assert clone.coords is chip.coords
        assert clone.name == "clone" and chip.name == "rect"
        for coord in chip.coords:
            assert clone.neighbors(coord) == chip.neighbors(coord)
            assert clone[coord] == chip[coord]
            assert clone[coord] is not chip[coord]
        first = chip.coords[0]
        clone.mark_faulty(first)
        clone.set_label(first, "mixer")
        assert not chip.faulty_cells() and chip[first].label is None
        assert [c.coord for c in clone.faulty_cells()] == [first]

    def test_redundancy_ratio(self):
        assert tiny_chip().redundancy_ratio() == pytest.approx(1 / 6)

    def test_redundancy_ratio_requires_primaries(self):
        spare_only = Biochip([Cell(Hex(0, 0), CellRole.SPARE)])
        with pytest.raises(ChipError):
            spare_only.redundancy_ratio()

    def test_labels(self):
        chip = tiny_chip()
        chip.set_label(Hex(1, 0), "mixer")
        assert [c.coord for c in chip if c.label == "mixer"] == [Hex(1, 0)]
