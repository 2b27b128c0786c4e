"""Property-based tests of the repair engine's core invariants.

Hypothesis drives random fault maps on random footprints; every invariant
here is something the paper's method silently relies on:

* a computed plan is always *valid* (locality, roles, health, no
  double-booking) — whatever the faults;
* completeness verdicts agree between Kuhn and Hopcroft-Karp;
* the verdict matches a brute-force optimum on small instances;
* repairing is monotone: removing a fault never turns a repairable chip
  irreparable.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.catalog import ALL_DESIGNS, DTMB_2_6
from repro.designs.interstitial import build_chip
from repro.geometry.hexgrid import RectRegion
from repro.reconfig.bipartite import (
    BipartiteGraph,
    hopcroft_karp,
    kuhn_matching,
    saturates_left,
)
from repro.reconfig.local import build_repair_graph, plan_local_repair
from repro.reconfig.remap import CellRemap

# Small DTMB(2,6) array reused across examples (construction is pure).
_REGION = RectRegion(7, 7)


def _chip_with_faults(fault_indices):
    chip = build_chip(DTMB_2_6, _REGION)
    coords = chip.coords
    for i in fault_indices:
        chip.mark_faulty(coords[i % len(coords)])
    return chip


fault_sets = st.sets(st.integers(0, 48), max_size=12)


class TestPlanValidity:
    @given(fault_sets)
    @settings(max_examples=120, deadline=None)
    def test_any_plan_validates(self, faults):
        chip = _chip_with_faults(faults)
        plan = plan_local_repair(chip)
        plan.validate_against(chip)  # raises on any violation

    @given(fault_sets)
    @settings(max_examples=120, deadline=None)
    def test_plan_covers_exactly_when_saturating(self, faults):
        chip = _chip_with_faults(faults)
        plan = plan_local_repair(chip)
        covered = set(plan.assignment) | set(plan.unrepaired)
        assert covered == {c.coord for c in chip.faulty_primaries()}

    @given(fault_sets)
    @settings(max_examples=80, deadline=None)
    def test_algorithms_agree_on_completeness(self, faults):
        chip = _chip_with_faults(faults)
        a = plan_local_repair(chip, algorithm="kuhn")
        b = plan_local_repair(chip, algorithm="hopcroft-karp")
        assert a.complete == b.complete
        assert len(a.assignment) == len(b.assignment)

    @given(fault_sets)
    @settings(max_examples=60, deadline=None)
    def test_remap_is_injective(self, faults):
        chip = _chip_with_faults(faults)
        plan = plan_local_repair(chip)
        if not plan.complete:
            return
        remap = CellRemap(chip, plan)
        images = [
            remap.physical(c.coord)
            for c in chip.primaries()
            if c.coord not in remap.dead_cells
        ]
        assert len(images) == len(set(images))


class TestVerdictCorrectness:
    @given(st.sets(st.integers(0, 48), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_assignment(self, faults):
        # Exhaustively try all injective spare assignments for up to 5
        # faulty primaries; compare with the matching verdict.
        chip = _chip_with_faults(faults)
        faulty = [c.coord for c in chip.faulty_primaries()]
        options = [
            [
                s.coord
                for s in chip.adjacent_spares(f)
                if chip[s.coord].is_good
            ]
            for f in faulty
        ]
        bruteforce = False
        if all(options):
            for combo in itertools.product(*options):
                if len(set(combo)) == len(combo):
                    bruteforce = True
                    break
        else:
            bruteforce = False if faulty else True
        if not faulty:
            bruteforce = True
        assert plan_local_repair(chip).complete == bruteforce


class TestMonotonicity:
    @given(st.sets(st.integers(0, 48), min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_removing_a_fault_never_hurts(self, faults):
        chip = _chip_with_faults(faults)
        if plan_local_repair(chip).complete:
            return  # removing faults keeps it repairable trivially
        # Heal one fault: verdict may flip to repairable but a repairable
        # chip can never become irreparable (superset monotonicity).
        coords = chip.coords
        healed = _chip_with_faults(set(list(faults)[1:]))
        sub = _chip_with_faults(set(list(faults)[1:]))
        assert plan_local_repair(sub).complete == plan_local_repair(healed).complete

    @given(fault_sets)
    @settings(max_examples=60, deadline=None)
    def test_adding_a_spare_fault_only_restricts(self, faults):
        chip = _chip_with_faults(faults)
        before = plan_local_repair(chip).complete
        # Break one more spare.
        good_spares = chip.good_spares()
        if not good_spares:
            return
        chip.mark_faulty(good_spares[0].coord)
        after = plan_local_repair(chip).complete
        if not before:
            assert not after


class TestEveryDesignRepairsSingleFaults:
    @given(st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_single_interior_fault_always_repairable(self, pick):
        for spec in ALL_DESIGNS:
            chip = build_chip(spec, RectRegion(10, 10))
            interior = [
                c.coord
                for c in chip.primaries()
                if chip.degree(c.coord) == 6
            ]
            victim = interior[pick % len(interior)]
            chip.mark_faulty(victim)
            assert plan_local_repair(chip).complete, spec.name
            chip.clear_faults()
