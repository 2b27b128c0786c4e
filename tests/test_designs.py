"""Tests for the DTMB design catalog, builders and structural verification."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.designs.boundary import ModulePlacement, SpareRowArray
from repro.designs.catalog import (
    ALL_DESIGNS,
    DTMB_1_6,
    DTMB_2_6,
    DTMB_2_6_ALT,
    DTMB_3_6,
    DTMB_4_4,
    TABLE1_DESIGNS,
    table1_rows,
)
from repro.designs.interstitial import (
    build_chip,
    build_flower_chip,
    build_with_primary_count,
    rect_role_counts,
)
from repro.designs.spec import DesignSpec
from repro.designs.verify import inspect_structure, verify_design
from repro.errors import DesignError
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion, axial_to_offset
from repro.geometry.lattice import CongruenceLattice, lattice_period
from repro.yieldsim.scheduler import chip_identity


class TestCatalog:
    def test_table1_redundancy_ratios(self):
        rows = dict(table1_rows())
        assert rows["DTMB(1,6)"] == Fraction(1, 6)
        assert rows["DTMB(2,6)"] == Fraction(1, 3)
        assert rows["DTMB(3,6)"] == Fraction(1, 2)
        assert rows["DTMB(4,4)"] == Fraction(1, 1)

    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    def test_density_consistent_with_sp(self, spec):
        # Each primary sees s spares and each spare serves p primaries, so
        # the lattice densities must stand in the ratio s/p.
        assert spec.spare_density / spec.primary_density == Fraction(spec.s, spec.p)

    def test_alt_layout_differs_from_primary(self):
        # Same (s, p), different spare pattern.
        a = DTMB_2_6.spare_lattice
        b = DTMB_2_6_ALT.spare_lattice
        window = [Hex(q, r) for q in range(4) for r in range(4)]
        assert [h in a for h in window] != [h in b for h in window]


class TestSpec:
    def test_invalid_parameters_rejected(self):
        lat = CongruenceLattice(1, 0, 2)
        with pytest.raises(DesignError):
            DesignSpec("bad", s=0, p=4, spare_lattice=lat)
        with pytest.raises(DesignError):
            DesignSpec("bad", s=1, p=7, spare_lattice=lat)


class TestStructure:
    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    def test_definition1_holds(self, spec):
        chip = build_chip(spec, RectRegion(14, 14))
        report = verify_design(spec, chip)
        assert report.uniform_s() == spec.s
        assert report.uniform_p() == spec.p

    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    def test_coset_invariance(self, spec):
        # Translated patterns are equally valid instances of the design.
        chip = build_chip(spec, RectRegion(14, 14), offset=Hex(1, 1))
        verify_design(spec, chip)

    @pytest.mark.parametrize("spec", TABLE1_DESIGNS, ids=lambda s: s.name)
    def test_finite_rr_approaches_asymptote(self, spec):
        small = build_chip(spec, RectRegion(8, 8)).redundancy_ratio()
        large = build_chip(spec, RectRegion(48, 48)).redundancy_ratio()
        target = float(spec.redundancy_ratio)
        assert abs(large - target) <= abs(small - target) + 1e-9
        assert large == pytest.approx(target, abs=0.02)

    def test_too_small_array_rejected(self):
        chip = build_chip(DTMB_1_6, RectRegion(3, 3))
        with pytest.raises(DesignError):
            verify_design(DTMB_1_6, chip)

    def test_inspect_structure_histograms(self):
        chip = build_chip(DTMB_4_4, RectRegion(10, 10))
        report = inspect_structure(chip)
        assert set(report.interior_primary_spare_degrees) == {4}
        assert set(report.interior_spare_primary_degrees) == {4}
        assert report.primary_count + report.spare_count == len(chip)


class TestPrimaryCountFits:
    @pytest.mark.parametrize("spec", TABLE1_DESIGNS, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [60, 100, 240])
    def test_exact_primary_count(self, spec, n):
        fit = build_with_primary_count(spec, n)
        chip = fit.build()
        assert chip.primary_count == n
        assert chip.spare_count == fit.spare_count > 0

    def test_deterministic(self):
        a = build_with_primary_count(DTMB_2_6, 100)
        b = build_with_primary_count(DTMB_2_6, 100)
        assert (a.cols, a.rows, a.offset) == (b.cols, b.rows, b.offset)

    def test_invalid_count_rejected(self):
        with pytest.raises(DesignError):
            build_with_primary_count(DTMB_2_6, 0)

    def test_impossible_count_raises(self):
        with pytest.raises(DesignError):
            build_with_primary_count(DTMB_2_6, 61, max_dim=4)

    @pytest.mark.parametrize("spec", TABLE1_DESIGNS, ids=lambda s: s.name)
    def test_residue_count_matches_object_count(self, spec):
        # Every shape and coset: the arithmetic spare count equals the
        # count of region cells inside the translated lattice.
        period = lattice_period(spec.spare_lattice)
        for cols in range(2, 13):
            for rows in range(2, 13):
                region = RectRegion(cols, rows)
                _, spares = rect_role_counts(spec, cols, rows)
                for dq in range(period):
                    for dr in range(period):
                        lattice = spec.spare_lattice.translated(Hex(dq, dr))
                        expected = sum(1 for h in region if h in lattice)
                        assert spares[dq * period + dr] == expected, (
                            cols, rows, dq, dr
                        )

    # Layouts of the object-level search this one replaced: a change in
    # shape or coset order changes every downstream yield figure.
    @pytest.mark.parametrize(
        "name, n, cols, rows, dq, dr",
        [
            ("DTMB(1,6)", 60, 7, 10, 0, 0),
            ("DTMB(1,6)", 100, 9, 13, 0, 0),
            ("DTMB(1,6)", 120, 10, 14, 0, 0),
            ("DTMB(1,6)", 240, 14, 20, 0, 0),
            ("DTMB(2,6)", 60, 8, 10, 0, 0),
            ("DTMB(2,6)", 100, 10, 13, 0, 1),
            ("DTMB(2,6)", 120, 12, 13, 0, 1),
            ("DTMB(2,6)", 240, 16, 20, 0, 0),
            ("DTMB(3,6)", 60, 9, 10, 0, 0),
            ("DTMB(3,6)", 100, 15, 10, 0, 0),
            ("DTMB(3,6)", 120, 12, 15, 0, 0),
            ("DTMB(3,6)", 240, 18, 20, 0, 0),
            ("DTMB(4,4)", 60, 11, 11, 0, 0),
            ("DTMB(4,4)", 100, 11, 18, 1, 0),
            ("DTMB(4,4)", 120, 15, 16, 0, 0),
            ("DTMB(4,4)", 240, 20, 24, 0, 0),
        ],
    )
    def test_layout_pinned(self, name, n, cols, rows, dq, dr):
        spec = next(d for d in ALL_DESIGNS if d.name == name)
        fit = build_with_primary_count(spec, n)
        assert (fit.cols, fit.rows, fit.offset) == (cols, rows, Hex(dq, dr))


class TestLayoutCopies:
    """``FitResult.build`` copies one memoized layout per fit."""

    def test_builds_are_distinct_chips_with_distinct_cells(self):
        fit = build_with_primary_count(DTMB_2_6, 100)
        a, b = fit.build(), fit.build()
        assert a is not b
        for coord in a.coords:
            assert a[coord] is not b[coord]

    def test_health_and_labels_do_not_leak(self):
        fit = build_with_primary_count(DTMB_3_6, 60)
        a, b = fit.build(), fit.build()
        coord = a.primaries()[0].coord
        a.mark_faulty(coord)
        a.set_label(coord, "mixer")
        c = fit.build()
        for other in (b, c):
            assert other.faulty_cells() == []
            assert other[coord].label is None
        assert a[coord].is_faulty and a[coord].label == "mixer"

    def test_copies_share_coordinate_structure(self):
        fit = build_with_primary_count(DTMB_1_6, 60)
        a, b = fit.build(), fit.build()
        assert a.coords is b.coords
        for coord in a.coords:
            assert a.neighbors(coord) is b.neighbors(coord)

    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [60, 100])
    def test_copy_equals_direct_build(self, spec, n):
        fit = build_with_primary_count(spec, n)
        direct = build_chip(
            spec,
            RectRegion(fit.cols, fit.rows),
            fit.offset,
            name=f"{spec.name} n={fit.primary_count}",
        )
        for name in (None, "custom"):
            copy = fit.build(name)
            assert copy.name == (name or direct.name)
            assert chip_identity(copy)[1] == chip_identity(direct)[1]


class TestRectRoleCounts:
    @pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
    def test_counts_equal_built_chip(self, spec):
        # In offset coordinates a cols x rows rectangle is the first cols
        # columns of the first rows rows of the 40 x 40 one, so its role
        # counts are 2-D prefix sums of one built 40 x 40 chip per coset.
        size = 40
        period = lattice_period(spec.spare_lattice)
        spares_in = []  # per coset, in rect_role_counts order
        for dq in range(period):
            for dr in range(period):
                chip = build_chip(spec, RectRegion(size, size), Hex(dq, dr))
                primaries, spares = rect_role_counts(spec, size, size)
                k = dq * period + dr
                assert (chip.primary_count, chip.spare_count) == (
                    primaries[k], spares[k]
                )
                spare = np.zeros((size, size), dtype=np.int64)
                for cell in chip.spares():
                    col, row = axial_to_offset(cell.coord)
                    spare[row, col] = 1
                spares_in.append(spare.cumsum(axis=0).cumsum(axis=1))
        expected = np.stack(spares_in, axis=-1)
        for cols in range(2, size + 1):
            for rows in range(2, size + 1):
                primaries, spares = rect_role_counts(spec, cols, rows)
                want = expected[rows - 1, cols - 1]
                np.testing.assert_array_equal(spares, want, err_msg=f"{cols}x{rows}")
                np.testing.assert_array_equal(
                    primaries, cols * rows - want, err_msg=f"{cols}x{rows}"
                )


class TestFlowerChip:
    def test_counts(self):
        chip = build_flower_chip(60)
        assert chip.primary_count == 60
        assert chip.spare_count == 10

    def test_every_primary_has_exactly_one_spare(self):
        chip = build_flower_chip(36)
        for cell in chip.primaries():
            assert len(chip.adjacent_spares(cell.coord)) == 1

    def test_spares_serve_six_primaries(self):
        chip = build_flower_chip(36)
        for cell in chip.spares():
            assert len(chip.adjacent_primaries(cell.coord)) == 6

    def test_requires_multiple_of_six(self):
        with pytest.raises(DesignError):
            build_flower_chip(10)
        with pytest.raises(DesignError):
            build_flower_chip(0)


class TestSpareRowArray:
    def test_uniform_construction(self):
        array = SpareRowArray.uniform(6, [2, 2, 2])
        assert array.spare_row == 6
        assert array.rows == 7
        assert [m.name for m in array.modules] == [
            "Module 3",
            "Module 2",
            "Module 1",
        ]

    def test_modules_must_tile(self):
        with pytest.raises(DesignError):
            SpareRowArray(4, [ModulePlacement("A", 0, 2), ModulePlacement("B", 3, 4)])

    def test_module_of_row(self):
        array = SpareRowArray.uniform(4, [2, 3])
        assert array.module_of_row(0).name == "Module 2"
        assert array.module_of_row(4).name == "Module 1"
        with pytest.raises(DesignError):
            array.module_of_row(5)  # spare row belongs to no module

    def test_distance_to_spare_row(self):
        array = SpareRowArray.uniform(4, [2, 2])
        assert array.distance_to_spare_row(0) == 4
        assert array.distance_to_spare_row(4) == 0

    def test_empty_module_rejected(self):
        with pytest.raises(DesignError):
            ModulePlacement("empty", 2, 2)
