"""Tests for the design selector (target-yield driven design choice)."""

from __future__ import annotations

import pytest

from repro.designs.catalog import DTMB_1_6, DTMB_4_4, TABLE1_DESIGNS
from repro.designs.interstitial import build_with_primary_count
from repro.designs.selector import recommend_design
from repro.errors import DesignError, SimulationError
from repro.yieldsim.montecarlo import YieldSimulator


class TestRecommendDesign:
    def test_easy_target_picks_cheapest(self):
        # Any design clears 10% yield at p = 0.99; the cheapest (lowest RR)
        # must be chosen.
        rec = recommend_design(0.10, p=0.99, n=60, runs=800, seed=1)
        assert rec.feasible
        assert rec.chosen is DTMB_1_6

    def test_hard_target_needs_heavier_design(self):
        rec = recommend_design(0.95, p=0.94, n=100, runs=1500, seed=2)
        assert rec.feasible
        assert rec.chosen is not DTMB_1_6
        assert float(rec.chosen.redundancy_ratio) >= 0.5

    def test_candidate_estimates_pinned(self):
        # Captured from the selector that built a fresh repair structure
        # per call; repeated calls share one per design and must agree.
        for _ in range(2):
            rec = recommend_design(0.95, p=0.94, n=100, runs=1500, seed=2)
            assert [(name, e.successes, e.trials) for name, e in rec.candidates] == [
                ("DTMB(1,6)", 295, 1500),
                ("DTMB(2,6)", 1144, 1500),
                ("DTMB(3,6)", 1440, 1500),
                ("DTMB(4,4)", 1487, 1500),
            ]
            assert rec.chosen is DTMB_4_4

    def test_impossible_target_reports_infeasible(self):
        rec = recommend_design(0.999, p=0.80, n=100, runs=600, seed=3)
        assert not rec.feasible
        assert rec.chosen is None
        assert "no catalog design" in rec.format_report()

    def test_candidates_ordered_by_cost(self):
        rec = recommend_design(0.5, p=0.95, n=60, runs=500, seed=4)
        names = [name for name, _ in rec.candidates]
        assert names == [d.name for d in sorted(
            TABLE1_DESIGNS, key=lambda d: d.redundancy_ratio
        )]

    def test_confident_mode_is_stricter(self):
        # With the CI lower bound required to clear the target, the chosen
        # design can only get heavier (or stay the same).
        loose = recommend_design(
            0.9, p=0.95, n=60, runs=800, seed=5, confident=False
        )
        strict = recommend_design(
            0.9, p=0.95, n=60, runs=800, seed=5, confident=True
        )
        if loose.feasible and strict.feasible:
            assert float(strict.chosen.redundancy_ratio) >= float(
                loose.chosen.redundancy_ratio
            )

    def test_validation(self):
        with pytest.raises(SimulationError):
            recommend_design(0.0, p=0.9)
        with pytest.raises(SimulationError):
            recommend_design(0.9, p=1.5)
        with pytest.raises(DesignError):
            recommend_design(0.9, p=0.9, designs=[])

    def test_report_lists_all_candidates(self):
        rec = recommend_design(0.5, p=0.95, n=60, runs=400, seed=6)
        report = rec.format_report()
        for design in TABLE1_DESIGNS:
            assert design.name in report


class TestBruteForceOracle:
    """The selector's kernel estimates equal the brute-force simulator's."""

    def test_candidates_equal_simulator(self):
        rec = recommend_design(0.9, p=0.95, n=60, runs=700, seed=11)
        ordered = sorted(TABLE1_DESIGNS, key=lambda d: d.redundancy_ratio)
        assert len(rec.candidates) == len(ordered)
        for i, (spec, (name, estimate)) in enumerate(zip(ordered, rec.candidates)):
            chip = build_with_primary_count(spec, 60).build()
            expected = YieldSimulator(chip).run_survival(0.95, runs=700, seed=11 + i)
            assert name == spec.name
            assert estimate == expected
