"""Cross-module integration tests: the full workflows a user would run.

Each test exercises a complete pipeline across several packages:
manufacture (fault injection) → repair (reconfiguration) → operate
(fluidics + assays).  Test and diagnosis are assumed perfect, as in the
paper: the injected fault map is exactly what the repair planner sees.
"""

from __future__ import annotations

import pytest

from repro.assays.chemistry import Species
from repro.assays.chipspec import redesigned_chip
from repro.assays.runner import MultiplexedRunner
from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_chip
from repro.errors import AssayError
from repro.faults.injection import bernoulli_faults, fixed_count_faults
from repro.fluidics.controller import ElectrodeController
from repro.fluidics.scheduler import Scheduler
from repro.geometry.hexgrid import RectRegion
from repro.reconfig.local import plan_local_repair
from repro.reconfig.remap import CellRemap
from repro.viz.ascii_art import render_chip
from repro.yieldsim.montecarlo import YieldSimulator


class TestManufactureTestRepairOperate:
    """The chip lifecycle the paper envisions, end to end."""

    def test_full_lifecycle(self):
        chip = build_chip(DTMB_2_6, RectRegion(12, 12))

        # 1. Manufacturing defects appear; perfect diagnosis reports
        #    exactly the injected map.
        faults = fixed_count_faults(chip, 3, seed=99)
        chip.apply_fault_map(faults)
        assert [c.coord for c in chip.faulty_cells()] == faults

        # 2. Local reconfiguration repairs the faulty primaries.
        repair = plan_local_repair(chip)
        if not repair.complete:
            pytest.skip("seeded fault map happens to be irreparable")
        remap = CellRemap(chip, repair)

        # 3. Every faulty primary is served by an adjacent good spare.
        faulty_primaries = {c for c in faults if chip[c].is_primary}
        assert set(repair.assignment) == faulty_primaries
        for primary, spare in repair.assignment.items():
            assert remap.physical(primary) == spare
            assert chip[spare].is_spare and chip[spare].is_good
            assert spare in chip.neighbors(primary)

        # 4. Droplets route over the repaired array.
        controller = ElectrodeController(chip, remap=remap)
        scheduler = Scheduler(controller)
        from repro.fluidics.operations import Dispense, Transport

        primaries = [c.coord for c in chip.primaries()]
        src = next(p for p in primaries if chip[p].is_good)
        dst = next(
            p
            for p in reversed(primaries)
            if chip[p].is_good and p != src
        )
        schedule = scheduler.run(
            [Dispense("d", src), Transport("d", dst)]
        )
        assert scheduler.droplet("d").position == dst
        assert schedule.total_moves > 0

    def test_rendering_roundtrip_consistency(self):
        chip = build_chip(DTMB_2_6, RectRegion(8, 8))
        chip.apply_fault_map(fixed_count_faults(chip, 4, seed=3))
        art_before = render_chip(chip)
        assert render_chip(chip.copy()) == art_before


class TestYieldStoryEndToEnd:
    """The paper's quantitative claims, checked across module boundaries."""

    def test_redundant_chip_beats_fabricated_baseline(self):
        # At p = 0.99 the fabricated chip yields 0.3378; the DTMB(2,6)
        # redesign protects the same 108 cells far better.
        layout = redesigned_chip()
        sim = YieldSimulator(layout.chip, needed=layout.used)
        est = sim.run_survival(0.99, runs=3000, seed=21)
        assert est.value > 0.80
        assert est.lo > 0.3378

    def test_yield_simulator_agrees_with_explicit_repair_loop(self):
        # The vectorized simulator and the object-level repair API must
        # agree run for run.
        chip = build_chip(DTMB_2_6, RectRegion(10, 10))
        explicit_successes = 0
        trials = 300
        for seed in range(trials):
            working = chip.copy()
            working.apply_fault_map(bernoulli_faults(working, 0.95, seed=seed))
            if plan_local_repair(working).complete:
                explicit_successes += 1
        est = YieldSimulator(chip).run_survival(0.95, runs=trials, seed=1234)
        # Different random streams: agreement within a few sigma.
        assert abs(est.value - explicit_successes / trials) < 0.08


class TestAssayOnDamagedChip:
    def test_panel_accuracy_unchanged_by_repair(self):
        clean = MultiplexedRunner(redesigned_chip())
        damaged_layout = redesigned_chip()
        damaged_layout.chip.apply_fault_map(
            fixed_count_faults(damaged_layout.chip, 12, seed=77)
        )
        try:
            damaged = MultiplexedRunner(damaged_layout)
        except AssayError:
            pytest.skip("seed 77 produced an irreparable map")
        truths = {Species.GLUCOSE: 4.5e-3, Species.PYRUVATE: 9e-5}
        for runner in (clean, damaged):
            for result in runner.run_panel(truths):
                assert result.relative_error < 0.02

    def test_measurements_distinguish_healthy_from_pathological(self):
        runner = MultiplexedRunner(redesigned_chip())
        normal, high = 5e-3, 12e-3
        r_normal = runner.run_panel({Species.GLUCOSE: normal})[0]
        runner2 = MultiplexedRunner(redesigned_chip())
        r_high = runner2.run_panel({Species.GLUCOSE: high})[0]
        assert r_normal.in_reference_range
        assert not r_high.in_reference_range
        assert r_high.measured_concentration > r_normal.measured_concentration
