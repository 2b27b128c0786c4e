"""Tests for local reconfiguration planning and coordinate remapping."""

from __future__ import annotations

import pytest

from repro.chip.biochip import Biochip
from repro.chip.cell import Cell, CellRole
from repro.designs.catalog import DTMB_1_6, DTMB_2_6
from repro.designs.interstitial import build_chip, build_flower_chip
from repro.errors import IrreparableChipError, ReconfigurationError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion
from repro.reconfig.local import (
    RepairPlan,
    build_repair_graph,
    plan_local_repair,
)
from repro.reconfig.remap import CellRemap


class TestRepairGraph:
    def test_graph_structure_matches_faults(self, dtmb26_chip):
        chip = dtmb26_chip
        faulty = [c.coord for c in chip.primaries()][:3]
        chip.apply_fault_map(faulty)
        graph = build_repair_graph(chip)
        assert set(graph.left) == set(faulty)
        for u in graph.left:
            for v in graph.adj[u]:
                assert chip[v].is_spare and chip[v].is_good
                assert v in chip.neighbors(u)

    def test_faulty_spares_excluded_from_right(self, dtmb26_chip):
        chip = dtmb26_chip
        spare = chip.spares()[0].coord
        chip.mark_faulty(spare)
        graph = build_repair_graph(chip)
        assert spare not in graph.right

    def test_needed_restricts_left_side(self, dtmb26_chip):
        chip = dtmb26_chip
        faulty = [c.coord for c in chip.primaries()][:4]
        chip.apply_fault_map(faulty)
        graph = build_repair_graph(chip, needed=faulty[:2])
        assert set(graph.left) == set(faulty[:2])


class TestPlanLocalRepair:
    def test_no_faults_trivially_complete(self, dtmb26_chip):
        plan = plan_local_repair(dtmb26_chip)
        assert plan.complete
        assert plan.spares_used == 0

    def test_single_fault_repaired_by_adjacent_spare(self, dtmb26_chip):
        chip = dtmb26_chip
        victim = next(
            c.coord for c in chip.primaries() if len(chip.adjacent_spares(c.coord)) == 2
        )
        chip.mark_faulty(victim)
        plan = plan_local_repair(chip)
        assert plan.complete
        spare = plan.assignment[victim]
        assert spare in chip.neighbors(victim)
        assert chip[spare].is_spare
        plan.validate_against(chip)

    def test_dtmb16_contention_is_irreparable(self):
        # Two faulty primaries sharing the single flower spare: only one
        # can be repaired.
        chip = build_flower_chip(6)
        primaries = [c.coord for c in chip.primaries()]
        chip.apply_fault_map(primaries[:2])
        plan = plan_local_repair(chip)
        assert not plan.complete
        assert len(plan.unrepaired) == 1
        assert not plan_local_repair(chip).complete

    def test_require_complete_raises(self):
        chip = build_flower_chip(6)
        primaries = [c.coord for c in chip.primaries()]
        chip.apply_fault_map(primaries[:2])
        with pytest.raises(IrreparableChipError):
            plan_local_repair(chip, require_complete=True)

    def test_faulty_spare_blocks_its_primary(self):
        chip = build_flower_chip(6)
        chip.mark_faulty(Hex(0, 0))  # the only spare
        victim = chip.primaries()[0].coord
        chip.mark_faulty(victim)
        assert not plan_local_repair(chip).complete

    def test_needed_subset_ignores_other_faults(self, dtmb26_chip):
        chip = dtmb26_chip
        primaries = [c.coord for c in chip.primaries()]
        needed = primaries[:5]
        unneeded_fault = primaries[-1]
        chip.mark_faulty(unneeded_fault)
        plan = plan_local_repair(chip, needed=needed)
        assert plan.complete
        assert plan.spares_used == 0

    def test_dtmb26_tolerates_many_scattered_faults(self, dtmb26_chip):
        # Faults whose spare neighborhoods are pairwise disjoint are
        # always repairable, however many there are.
        chip = dtmb26_chip
        claimed_spares: set = set()
        targets = []
        for cell in chip.primaries():
            spares = {s.coord for s in chip.adjacent_spares(cell.coord)}
            if len(spares) == 2 and not (spares & claimed_spares):
                targets.append(cell.coord)
                claimed_spares |= spares
        assert len(targets) >= 5
        chip.apply_fault_map(targets)
        assert plan_local_repair(chip).complete


class TestPlanValidation:
    def test_plan_using_non_adjacent_spare_rejected(self, dtmb26_chip):
        chip = dtmb26_chip
        victim = chip.primaries()[0].coord
        chip.mark_faulty(victim)
        far_spare = next(
            s.coord
            for s in chip.spares()
            if s.coord not in chip.neighbors(victim)
        )
        bogus = RepairPlan(assignment={victim: far_spare})
        with pytest.raises(ReconfigurationError):
            bogus.validate_against(chip)

    def test_plan_repairing_healthy_cell_rejected(self, dtmb26_chip):
        chip = dtmb26_chip
        healthy = chip.primaries()[0].coord
        spare = chip.adjacent_spares(healthy)
        if spare:
            bogus = RepairPlan(assignment={healthy: spare[0].coord})
            with pytest.raises(ReconfigurationError):
                bogus.validate_against(chip)

class TestCellRemap:
    def _repaired_chip(self):
        chip = build_chip(DTMB_2_6, RectRegion(10, 10))
        victim = next(
            c.coord
            for c in chip.primaries()
            if len(chip.adjacent_spares(c.coord)) == 2
        )
        chip.mark_faulty(victim)
        plan = plan_local_repair(chip)
        return chip, victim, CellRemap(chip, plan)

    def test_identity_for_healthy_cells(self):
        chip, victim, remap = self._repaired_chip()
        healthy = next(c.coord for c in chip.primaries() if c.coord != victim)
        assert remap.physical(healthy) == healthy

    def test_faulty_cell_maps_to_adjacent_spare(self):
        chip, victim, remap = self._repaired_chip()
        phys = remap.physical(victim)
        assert phys != victim
        assert phys in chip.neighbors(victim)
        assert chip[phys].is_spare

    def test_inverse_mapping(self):
        chip, victim, remap = self._repaired_chip()
        assert remap.logical(remap.physical(victim)) == victim

    def test_remapped_count_and_flags(self):
        chip, victim, remap = self._repaired_chip()
        assert remap.remapped_count == 1
        assert remap.physical(victim) != victim
        assert remap.dead_cells == ()

    def test_dead_cell_lookup_raises(self):
        chip = build_flower_chip(6)
        primaries = [c.coord for c in chip.primaries()]
        chip.apply_fault_map(primaries[:2])
        plan = plan_local_repair(chip)
        remap = CellRemap(chip, plan)
        assert len(remap.dead_cells) == 1
        with pytest.raises(ReconfigurationError):
            remap.physical(remap.dead_cells[0])
