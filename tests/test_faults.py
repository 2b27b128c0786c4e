"""Tests for the fault taxonomy and the seeded injectors."""

from __future__ import annotations

import pytest

from repro.chip.builders import plain_chip
from repro.errors import FaultModelError
from repro.faults.injection import (
    CATASTROPHIC_KINDS,
    BernoulliInjector,
    FixedCountInjector,
)
from repro.faults.model import Fault, FaultKind, FaultMap
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion


class TestFaultModel:
    def test_classification(self):
        # Every modelled mechanism is catastrophic, and injectors can
        # attribute each of them.
        assert set(CATASTROPHIC_KINDS) == set(FaultKind)
        chip = plain_chip(RectRegion(20, 20))
        kinds = {f.kind for f in BernoulliInjector(0.0).sample(chip, seed=1)}
        assert kinds == set(FaultKind)

    def test_fault_map_dedupes_per_cell(self):
        fm = FaultMap(
            [
                Fault(Hex(0, 0), FaultKind.ELECTRODE_SHORT),
                Fault(Hex(0, 0), FaultKind.OPEN_CONNECTION),
            ]
        )
        assert len(fm) == 1
        assert fm.fault_at(Hex(0, 0)).kind is FaultKind.ELECTRODE_SHORT

    def test_apply_to_unknown_coordinate_rejected(self):
        chip = plain_chip(RectRegion(2, 2))
        fm = FaultMap([Fault(Hex(99, 99), FaultKind.ELECTRODE_SHORT)])
        with pytest.raises(FaultModelError):
            fm.apply_to(chip)

    def test_apply_marks_cells(self):
        chip = plain_chip(RectRegion(3, 3))
        target = chip.coords[4]
        FaultMap([Fault(target, FaultKind.OPEN_CONNECTION)]).apply_to(chip)
        assert chip[target].is_faulty


class TestBernoulliInjector:
    def test_probability_bounds(self):
        with pytest.raises(FaultModelError):
            BernoulliInjector(1.5)

    def test_deterministic_from_seed(self):
        chip = plain_chip(RectRegion(10, 10))
        inj = BernoulliInjector(0.9)
        assert inj.sample(chip, seed=42).coords == inj.sample(chip, seed=42).coords

    def test_extreme_probabilities(self):
        chip = plain_chip(RectRegion(5, 5))
        assert len(BernoulliInjector(1.0).sample(chip, seed=1)) == 0
        assert len(BernoulliInjector(0.0).sample(chip, seed=1)) == len(chip)

    def test_empirical_rate(self):
        chip = plain_chip(RectRegion(20, 20))
        inj = BernoulliInjector(0.9)
        total = sum(len(inj.sample(chip, seed=s)) for s in range(50))
        rate = total / (50 * len(chip))
        assert rate == pytest.approx(0.1, abs=0.02)


class TestFixedCountInjector:
    def test_exact_count_distinct_cells(self):
        chip = plain_chip(RectRegion(8, 8))
        fm = FixedCountInjector(7).sample(chip, seed=5)
        assert len(fm) == 7

    def test_count_validation(self):
        with pytest.raises(FaultModelError):
            FixedCountInjector(-1)
        chip = plain_chip(RectRegion(2, 2))
        with pytest.raises(FaultModelError):
            FixedCountInjector(10).sample(chip)

    def test_zero_faults(self):
        chip = plain_chip(RectRegion(2, 2))
        assert len(FixedCountInjector(0).sample(chip, seed=1)) == 0

    def test_uniform_coverage(self):
        # Over many draws every cell should get hit roughly equally.
        chip = plain_chip(RectRegion(6, 6))
        counts = {c: 0 for c in chip.coords}
        inj = FixedCountInjector(6)
        draws = 400
        for s in range(draws):
            for coord in inj.sample(chip, seed=s).coords:
                counts[coord] += 1
        expected = draws * 6 / len(chip)
        for count in counts.values():
            assert abs(count - expected) < expected  # loose 2x band
