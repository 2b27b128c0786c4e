"""Tests for analytical yield models, Monte-Carlo simulation and sweeps."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.catalog import DTMB_2_6, DTMB_4_4, TABLE1_DESIGNS
from repro.designs.interstitial import (
    build_chip,
    build_flower_chip,
    build_with_primary_count,
)
from repro.errors import SimulationError
from repro.geometry.hexgrid import RectRegion
from repro.yieldsim.analytical import (
    dtmb16_yield,
    flower_yield,
    yield_no_redundancy,
)
from repro.yieldsim.effective import chip_effective_yield, effective_yield
from repro.yieldsim.montecarlo import YieldSimulator
from repro.yieldsim.stats import YieldEstimate, wilson_interval
from repro.yieldsim.sweeps import (
    defect_count_sweep,
    survival_sweep,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)


class TestWilsonInterval:
    @given(st.integers(0, 500), st.integers(1, 500))
    def test_interval_contains_point_estimate(self, successes, trials):
        if successes > trials:
            successes = trials
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        eps = 1e-9  # at phat in {0, 1} the bound equals phat up to rounding
        assert 0.0 <= lo <= phat + eps
        assert phat - eps <= hi <= 1.0

    def test_shrinks_with_trials(self):
        lo1, hi1 = wilson_interval(90, 100)
        lo2, hi2 = wilson_interval(9000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validation(self):
        with pytest.raises(SimulationError):
            wilson_interval(1, 0)
        with pytest.raises(SimulationError):
            wilson_interval(5, 3)

    def test_estimate_helpers(self):
        a = YieldEstimate(successes=990, trials=1000)
        b = YieldEstimate(successes=500, trials=1000)
        assert a.clearly_above(b)
        assert not b.clearly_above(a)
        assert a.consistent_with(0.99)


class TestAnalytical:
    @given(probabilities)
    def test_flower_yield_bounds(self, p):
        assert 0.0 <= flower_yield(p) <= 1.0

    def test_flower_yield_exact_enumeration(self):
        # Brute-force the 7-cell cluster: survives iff <= 1 cell fails.
        p = 0.93
        total = 0.0
        for state in itertools.product([True, False], repeat=7):
            if sum(not s for s in state) <= 1:
                prob = 1.0
                for alive in state:
                    prob *= p if alive else (1 - p)
                total += prob
        assert flower_yield(p) == pytest.approx(total)

    def test_no_redundancy_formula(self):
        assert yield_no_redundancy(0.99, 108) == pytest.approx(0.3378, abs=5e-4)
        assert yield_no_redundancy(1.0, 1000) == 1.0
        assert yield_no_redundancy(0.5, 0) == 1.0

    def test_dtmb16_beats_no_redundancy(self):
        for p in (0.90, 0.95, 0.99):
            for n in (60, 120, 240):
                assert dtmb16_yield(p, n) > yield_no_redundancy(p, n)

    @given(st.floats(min_value=0.5, max_value=0.999))
    @settings(max_examples=40)
    def test_dtmb16_monotone_in_p(self, p):
        assert dtmb16_yield(p + 0.001, 100) >= dtmb16_yield(p, 100)

    def test_dtmb16_monotone_in_n(self):
        ys = [dtmb16_yield(0.95, n) for n in (30, 60, 120, 240)]
        assert ys == sorted(ys, reverse=True)

    def test_validation(self):
        with pytest.raises(SimulationError):
            yield_no_redundancy(1.5, 10)
        with pytest.raises(SimulationError):
            dtmb16_yield(0.9, -1)


class TestMonteCarloSurvival:
    def test_p_one_always_succeeds(self, dtmb26_chip):
        est = YieldSimulator(dtmb26_chip).run_survival(1.0, runs=200, seed=1)
        assert est.value == 1.0

    def test_p_zero_always_fails(self, dtmb26_chip):
        # Every cell faulty: nothing to repair with.
        est = YieldSimulator(dtmb26_chip).run_survival(0.0, runs=200, seed=1)
        assert est.value == 0.0

    def test_deterministic_from_seed(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        a = sim.run_survival(0.95, runs=500, seed=7)
        b = sim.run_survival(0.95, runs=500, seed=7)
        assert a.successes == b.successes

    def test_matches_analytical_on_flower_chip(self):
        chip = build_flower_chip(60)
        sim = YieldSimulator(chip)
        for p in (0.95, 0.99):
            est = sim.run_survival(p, runs=8000, seed=11)
            assert est.consistent_with(dtmb16_yield(p, 60))

    def test_monotone_in_p_statistically(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        low = sim.run_survival(0.90, runs=3000, seed=5)
        high = sim.run_survival(0.98, runs=3000, seed=6)
        assert high.clearly_above(low)

    def test_redundancy_ordering(self):
        # At equal (n, p), DTMB(4,4) must clearly beat DTMB(2,6).
        n, p = 100, 0.94
        light = YieldSimulator(build_with_primary_count(DTMB_2_6, n).build())
        heavy = YieldSimulator(build_with_primary_count(DTMB_4_4, n).build())
        assert heavy.run_survival(p, 3000, seed=1).clearly_above(
            light.run_survival(p, 3000, seed=2)
        )

    def test_beats_no_redundancy(self, dtmb26_chip):
        n = dtmb26_chip.primary_count
        est = YieldSimulator(dtmb26_chip).run_survival(0.97, runs=3000, seed=3)
        assert est.value > yield_no_redundancy(0.97, n)

    def test_chip_not_mutated(self, dtmb26_chip):
        YieldSimulator(dtmb26_chip).run_survival(0.9, runs=100, seed=1)
        assert not dtmb26_chip.faulty_cells()

    def test_validation(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        with pytest.raises(SimulationError):
            sim.run_survival(1.2, runs=10)
        with pytest.raises(SimulationError):
            sim.run_survival(0.9, runs=0)

    def test_needed_must_be_primary(self, dtmb26_chip):
        spare = dtmb26_chip.spares()[0].coord
        with pytest.raises(SimulationError):
            YieldSimulator(dtmb26_chip, needed=[spare])

    def test_needed_must_be_on_chip(self, dtmb26_chip):
        from repro.geometry.hex import Hex

        with pytest.raises(SimulationError):
            YieldSimulator(dtmb26_chip, needed=[Hex(99, 99)])


class TestMonteCarloFixedFaults:
    def test_zero_faults_perfect(self, dtmb26_chip):
        est = YieldSimulator(dtmb26_chip).run_fixed_faults(0, runs=100, seed=1)
        assert est.value == 1.0

    def test_all_cells_faulty_fails(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        est = sim.run_fixed_faults(len(dtmb26_chip), runs=50, seed=1)
        assert est.value == 0.0

    def test_monotone_in_m_statistically(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        low = sim.run_fixed_faults(3, runs=2000, seed=2)
        high = sim.run_fixed_faults(20, runs=2000, seed=3)
        assert low.clearly_above(high)

    def test_deterministic(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        assert (
            sim.run_fixed_faults(8, runs=400, seed=9).successes
            == sim.run_fixed_faults(8, runs=400, seed=9).successes
        )

    def test_single_fault_on_two_spare_design_mostly_survives(self):
        # m=1: the only failure is... none — a single faulty cell is either
        # a spare (free) or a primary with at least one fault-free spare.
        chip = build_chip(DTMB_2_6, RectRegion(10, 10))
        interior_ok = all(
            len(chip.adjacent_spares(c.coord)) >= 1 for c in chip.primaries()
        )
        est = YieldSimulator(chip).run_fixed_faults(1, runs=500, seed=4)
        if interior_ok:
            assert est.value == 1.0

    def test_validation(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        with pytest.raises(SimulationError):
            sim.run_fixed_faults(-1, runs=10)
        with pytest.raises(SimulationError):
            sim.run_fixed_faults(len(dtmb26_chip) + 1, runs=10)


class TestEffectiveYield:
    def test_formula(self):
        assert effective_yield(0.8, 0.25) == pytest.approx(0.64)
        assert effective_yield(1.0, 0.0) == 1.0

    def test_equals_y_times_n_over_total(self, dtmb26_chip):
        y = 0.9
        ey = chip_effective_yield(dtmb26_chip, y)
        n = dtmb26_chip.primary_count
        total = len(dtmb26_chip)
        assert ey == pytest.approx(y * n / total)

    def test_validation(self):
        with pytest.raises(SimulationError):
            effective_yield(1.5, 0.2)
        with pytest.raises(SimulationError):
            effective_yield(0.5, -0.1)


class TestSweeps:
    def test_survival_sweep_shape(self):
        points = survival_sweep(
            [DTMB_2_6], ns=[60], ps=[0.95, 0.99], runs=300, seed=1
        )
        assert len(points) == 2
        assert {pt.p for pt in points} == {0.95, 0.99}
        for pt in points:
            assert pt.design == "DTMB(2,6)"
            assert 0.0 <= pt.effective <= pt.yield_value

    def test_sweep_deterministic(self):
        a = survival_sweep([DTMB_2_6], [60], [0.97], runs=400, seed=5)
        b = survival_sweep([DTMB_2_6], [60], [0.97], runs=400, seed=5)
        assert a[0].estimate.successes == b[0].estimate.successes

    def test_defect_count_sweep(self, dtmb26_chip):
        points = defect_count_sweep(dtmb26_chip, ms=[2, 10], runs=300, seed=1)
        assert [pt.m for pt in points] == [2, 10]
        assert points[0].yield_value >= points[1].yield_value

