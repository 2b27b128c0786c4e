"""Tests for the chip builders."""

from __future__ import annotations

import pytest

from repro.chip.builders import chip_from_lattice, chip_from_roles, plain_chip, square_chip
from repro.chip.cell import Cell, CellRole
from repro.chip.biochip import Biochip
from repro.errors import ChipError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion
from repro.geometry.lattice import CongruenceLattice
from repro.geometry.square import Square


class TestBuilders:
    def test_plain_chip_all_primary(self):
        chip = plain_chip(RectRegion(4, 4))
        assert chip.primary_count == 16
        assert chip.spare_count == 0

    def test_chip_from_lattice_roles(self):
        chip = chip_from_lattice(RectRegion(8, 8), CongruenceLattice(1, 3, 7))
        for cell in chip:
            expected = CellRole.SPARE if cell.coord in CongruenceLattice(1, 3, 7) else CellRole.PRIMARY
            assert cell.role is expected

    def test_chip_from_lattice_requires_spares(self):
        # A lattice that misses the region entirely is a usage error.
        far = CongruenceLattice(1, 0, 50, c=25)
        with pytest.raises(ChipError):
            chip_from_lattice(RectRegion(3, 3), far)

    def test_chip_from_roles_with_labels(self):
        roles = {Hex(0, 0): CellRole.SPARE, Hex(1, 0): CellRole.PRIMARY}
        chip = chip_from_roles(roles, labels={Hex(1, 0): "port"})
        assert chip[Hex(1, 0)].label == "port"
        assert chip[Hex(0, 0)].is_spare

    def test_chip_from_roles_empty_rejected(self):
        with pytest.raises(ChipError):
            chip_from_roles({})

    def test_square_chip_spare_predicate(self):
        chip = square_chip(4, 4, spare_predicate=lambda s: s.x == 0)
        assert chip.spare_count == 4
        assert chip.primary_count == 12

    def test_mixed_coordinates_rejected(self):
        with pytest.raises(ChipError):
            Biochip([Cell(Hex(0, 0)), Cell(Square(1, 1))])
