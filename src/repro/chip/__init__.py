"""Biochip array model: cells, roles, health and adjacency.

This package is the substrate every other layer builds on:

* :class:`~repro.chip.cell.Cell` / :class:`~repro.chip.cell.CellRole` /
  :class:`~repro.chip.cell.CellHealth` — one electrode site;
* :class:`~repro.chip.biochip.Biochip` — the array with adjacency queries;
* builders (:func:`~repro.chip.builders.chip_from_lattice`...) — assemble
  plain, interstitial-redundant, and irregular layouts.
"""

from repro.chip.biochip import Biochip
from repro.chip.builders import (
    chip_from_lattice,
    chip_from_roles,
    plain_chip,
    square_chip,
)
from repro.chip.cell import Cell, CellHealth, CellRole

__all__ = [
    "Biochip",
    "Cell",
    "CellRole",
    "CellHealth",
    "plain_chip",
    "chip_from_lattice",
    "chip_from_roles",
    "square_chip",
]
