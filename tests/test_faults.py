"""Tests for the seeded fault draws."""

from __future__ import annotations

import pytest

from repro.chip.builders import plain_chip
from repro.errors import ChipError, FaultModelError
from repro.faults.injection import bernoulli_faults, fixed_count_faults
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion


class TestFaultModel:
    def test_apply_to_unknown_coordinate_rejected(self):
        chip = plain_chip(RectRegion(2, 2))
        with pytest.raises(ChipError):
            chip.apply_fault_map([Hex(99, 99)])

    def test_apply_marks_cells(self):
        chip = plain_chip(RectRegion(3, 3))
        target = chip.coords[4]
        chip.apply_fault_map([target])
        assert [c.coord for c in chip.faulty_cells()] == [target]


class TestBernoulliInjector:
    def test_probability_bounds(self):
        chip = plain_chip(RectRegion(2, 2))
        with pytest.raises(FaultModelError):
            bernoulli_faults(chip, 1.5)

    def test_deterministic_from_seed(self):
        chip = plain_chip(RectRegion(10, 10))
        assert bernoulli_faults(chip, 0.9, seed=42) == bernoulli_faults(chip, 0.9, seed=42)

    def test_extreme_probabilities(self):
        chip = plain_chip(RectRegion(5, 5))
        assert bernoulli_faults(chip, 1.0, seed=1) == []
        assert bernoulli_faults(chip, 0.0, seed=1) == list(chip.coords)

    def test_empirical_rate(self):
        chip = plain_chip(RectRegion(20, 20))
        total = sum(len(bernoulli_faults(chip, 0.9, seed=s)) for s in range(50))
        rate = total / (50 * len(chip))
        assert rate == pytest.approx(0.1, abs=0.02)


class TestFixedCountInjector:
    def test_exact_count_distinct_cells(self):
        chip = plain_chip(RectRegion(8, 8))
        faults = fixed_count_faults(chip, 7, seed=5)
        assert len(set(faults)) == 7

    def test_count_validation(self):
        chip = plain_chip(RectRegion(2, 2))
        with pytest.raises(FaultModelError):
            fixed_count_faults(chip, -1)
        with pytest.raises(FaultModelError):
            fixed_count_faults(chip, 10)

    def test_zero_faults(self):
        chip = plain_chip(RectRegion(2, 2))
        assert fixed_count_faults(chip, 0, seed=1) == []

    def test_uniform_coverage(self):
        # Over many draws every cell should get hit roughly equally.
        chip = plain_chip(RectRegion(6, 6))
        counts = {c: 0 for c in chip.coords}
        draws = 400
        for s in range(draws):
            for coord in fixed_count_faults(chip, 6, seed=s):
                counts[coord] += 1
        expected = draws * 6 / len(chip)
        for count in counts.values():
            assert abs(count - expected) < expected  # loose 2x band


class TestPinnedDraws:
    """The draws are pinned cell for cell: fig12 and ablation-matching
    replay them, so a changed stream changes published artifacts."""

    def test_bernoulli_draw_pinned(self):
        chip = plain_chip(RectRegion(5, 4))
        assert bernoulli_faults(chip, 0.8, seed=42) == [
            Hex(0, 0), Hex(0, 3), Hex(2, 1), Hex(2, 3), Hex(4, 0),
        ]

    def test_fixed_count_draw_pinned(self):
        chip = plain_chip(RectRegion(8, 8))
        assert fixed_count_faults(chip, 7, seed=5) == [
            Hex(-3, 7), Hex(2, 1), Hex(2, 4), Hex(3, 2),
            Hex(3, 4), Hex(4, 3), Hex(4, 5),
        ]

    def test_faults_come_back_in_coordinate_order(self):
        chip = plain_chip(RectRegion(8, 8))
        for seed in range(20):
            faults = fixed_count_faults(chip, 9, seed=seed)
            assert faults == sorted(faults)
            chip.apply_fault_map(faults)
            assert [c.coord for c in chip.faulty_cells()] == faults
            chip.clear_faults()
