"""Tests for the diagnostics chip specs and the end-to-end assay runner."""

from __future__ import annotations

import pytest

from repro.assays.chipspec import (
    PAPER_PRIMARY_COUNT,
    PAPER_SPARE_COUNT,
    PAPER_USED_COUNT,
    fabricated_chip,
    redesigned_chip,
)
from repro.assays.library import GLUCOSE_ASSAY, PANEL
from repro.assays.runner import CalibrationCurve, MultiplexedRunner
from repro.assays.chemistry import Species
from repro.errors import AssayError
from repro.faults.injection import fixed_count_faults


class TestFabricatedChip:
    def test_paper_cell_count(self):
        chip = fabricated_chip()
        assert len(chip) == PAPER_USED_COUNT == 108
        assert chip.spare_count == 0

    def test_ports_labeled(self):
        chip = fabricated_chip()
        labels = {c.label for c in chip if c.label}
        assert labels == {"SAMPLE1", "SAMPLE2", "REAGENT1", "REAGENT2"}

    def test_square_adjacency(self):
        chip = fabricated_chip()
        interior = [c for c in chip if chip.degree(c.coord) == 4]
        assert interior  # a 12x9 grid has interior cells


class TestRedesignedChip:
    @pytest.fixture(scope="class")
    def layout(self):
        return redesigned_chip()

    def test_paper_counts(self, layout):
        assert layout.chip.primary_count == PAPER_PRIMARY_COUNT == 252
        assert layout.chip.spare_count == PAPER_SPARE_COUNT == 91
        assert layout.used_count == PAPER_USED_COUNT == 108
        assert len(layout.chip) == 343

    def test_connected(self, layout):
        assert layout.chip.is_connected()

    def test_every_primary_has_an_adjacent_spare(self, layout):
        for cell in layout.chip.primaries():
            assert len(layout.chip.adjacent_spares(cell.coord)) >= 1

    def test_used_cells_are_primaries(self, layout):
        for coord in layout.used:
            assert layout.chip[coord].is_primary

    def test_used_cells_have_two_spares_mostly(self, layout):
        # The used region is interior: all used cells keep both spares.
        counts = [
            len(layout.chip.adjacent_spares(c)) for c in layout.used
        ]
        assert min(counts) >= 1
        assert sum(1 for c in counts if c == 2) / len(counts) > 0.9

    def test_functional_sites_distinct_and_used(self, layout):
        sites = list(layout.ports.values()) + list(layout.mixers) + list(
            layout.detectors
        )
        assert len(sites) == len(set(sites))
        for site in sites:
            assert site in set(layout.used)

    def test_labels_present(self, layout):
        labels = {c.label for c in layout.chip}
        assert {"MIXER1", "DETECTOR1", "SAMPLE1"} <= labels

    def test_deterministic_construction(self, layout):
        again = redesigned_chip()
        assert [c.coord for c in again.chip] == [c.coord for c in layout.chip]
        assert again.ports == layout.ports


class TestCalibration:
    def test_monotone_inversion(self):
        cal = CalibrationCurve(GLUCOSE_ASSAY)
        lo, hi = GLUCOSE_ASSAY.reference_range
        for truth in (lo, (lo + hi) / 2, hi):
            contents = {GLUCOSE_ASSAY.analyte: truth / 2}
            contents.update(
                {k: v / 2 for k, v in GLUCOSE_ASSAY.reagent_contents.items()}
            )
            final = GLUCOSE_ASSAY.cascade.simulate(contents, 30.0)
            from repro.assays.detection import OpticalDetector

            measured = cal.concentration(OpticalDetector().measure(final))
            assert measured == pytest.approx(truth, rel=0.02)

    def test_saturated_reading_rejected(self):
        cal = CalibrationCurve(GLUCOSE_ASSAY)
        with pytest.raises(AssayError):
            cal.concentration(1e9)


class TestMultiplexedRunner:
    def test_full_panel_on_clean_chip(self):
        runner = MultiplexedRunner(redesigned_chip())
        truths = {
            Species.GLUCOSE: 5e-3,
            Species.LACTATE: 1.5e-3,
            Species.GLUTAMATE: 1e-4,
            Species.PYRUVATE: 8e-5,
        }
        results = runner.run_panel(truths)
        assert len(results) == 4
        for result in results:
            assert result.relative_error < 0.02
            assert result.in_reference_range
            assert result.droplet_moves > 0

    def test_out_of_range_flagged(self):
        runner = MultiplexedRunner(redesigned_chip())
        results = runner.run_panel({Species.GLUCOSE: 15e-3})  # hyperglycemia
        assert not results[0].in_reference_range

    def test_panel_subset(self):
        runner = MultiplexedRunner(redesigned_chip())
        results = runner.run_panel({Species.LACTATE: 1e-3})
        assert [r.analyte for r in results] == [Species.LACTATE]

    def test_runs_after_repairing_faults(self):
        layout = redesigned_chip()
        layout.chip.apply_fault_map(fixed_count_faults(layout.chip, 10, seed=2005))
        runner = MultiplexedRunner(layout)
        results = runner.run_panel({Species.GLUCOSE: 5e-3})
        assert results[0].relative_error < 0.02

    def test_irreparable_chip_raises(self):
        layout = redesigned_chip()
        # Kill one used cell and every spare around it.
        victim = layout.used[50]
        layout.chip.mark_faulty(victim)
        for spare in layout.chip.adjacent_spares(victim):
            layout.chip.mark_faulty(spare.coord)
        with pytest.raises(AssayError):
            MultiplexedRunner(layout)

    def test_auto_repair_disabled_raises_on_faults(self):
        layout = redesigned_chip()
        layout.chip.mark_faulty(layout.used[0])
        with pytest.raises(AssayError):
            MultiplexedRunner(layout, auto_repair=False)
