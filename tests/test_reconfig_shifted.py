"""Tests for the boundary spare-row shifted-replacement baseline (Figure 2)."""

from __future__ import annotations

import pytest

from repro.designs.boundary import SpareRowArray
from repro.errors import IrreparableChipError, ReconfigurationError
from repro.geometry.square import Square
from repro.reconfig.shifted import (
    plan_shifted_replacement,
    shifted_cost_by_fault_row,
)


@pytest.fixture
def array():
    # Three 2-row modules over a 6-wide array; Module 1 next to spare row.
    return SpareRowArray.uniform(cols=6, module_heights=[2, 2, 2])


class TestPlanShiftedReplacement:
    def test_no_faults_identity(self, array):
        plan = plan_shifted_replacement(array, [])
        assert plan.cells_remapped == 0
        assert plan.modules_reconfigured == ()
        for row in range(array.spare_row):
            assert plan.row_remap[row] == row

    def test_fault_adjacent_to_spare_row_moves_one_module(self, array):
        # Fault in the last module row (Module 1, adjacent to spare row).
        fault = Square(2, array.spare_row - 1)
        plan = plan_shifted_replacement(array, [fault])
        assert plan.modules_reconfigured == ("Module 1",)
        assert plan.fault_free_modules_reconfigured == ()
        assert plan.cells_remapped == array.cols  # one row slides

    def test_interior_fault_drags_fault_free_modules(self, array):
        # Fault in Module 3 (farthest): Modules 2 and 1 get reconfigured
        # even though they are fault-free — the paper's Figure 2(c).
        fault = Square(0, 0)
        plan = plan_shifted_replacement(array, [fault])
        assert plan.modules_reconfigured == ("Module 3", "Module 2", "Module 1")
        assert set(plan.fault_free_modules_reconfigured) == {"Module 2", "Module 1"}
        assert plan.cells_remapped == array.cols * array.spare_row

    def test_row_remap_skips_faulty_row(self, array):
        plan = plan_shifted_replacement(array, [Square(3, 2)])
        assert plan.row_remap[1] == 1  # before the fault: unchanged
        assert plan.row_remap[2] == 3  # faulty row bypassed
        assert plan.row_remap[array.spare_row - 1] == array.spare_row

    def test_multiple_faults_same_row_ok(self, array):
        plan = plan_shifted_replacement(array, [Square(0, 1), Square(5, 1)])
        assert plan.faulty_row == 1

    def test_faults_in_two_rows_irreparable(self, array):
        with pytest.raises(IrreparableChipError):
            plan_shifted_replacement(array, [Square(0, 0), Square(0, 3)])

    def test_fault_in_spare_row_irreparable(self, array):
        with pytest.raises(IrreparableChipError):
            plan_shifted_replacement(array, [Square(1, array.spare_row)])

    def test_fault_outside_array_rejected(self, array):
        with pytest.raises(ReconfigurationError):
            plan_shifted_replacement(array, [Square(99, 0)])

    def test_logical_row_must_be_module_row(self, array):
        plan = plan_shifted_replacement(array, [Square(0, 0)])
        assert array.spare_row not in plan.row_remap


class TestCostSeries:
    def test_cost_monotone_in_distance(self, array):
        records = shifted_cost_by_fault_row(array)
        # Farther from the spare row -> strictly more cells remapped.
        by_distance = sorted(records, key=lambda r: r["distance_to_spare_row"])
        cells = [r["cells_remapped"] for r in by_distance]
        assert cells == sorted(cells)
        assert cells[0] < cells[-1]

    def test_collateral_counts(self, array):
        records = shifted_cost_by_fault_row(array)
        worst = max(r["fault_free_modules_reconfigured"] for r in records)
        assert worst == len(array.modules) - 1

    def test_one_record_per_module_row(self, array):
        records = shifted_cost_by_fault_row(array)
        assert len(records) == array.spare_row
