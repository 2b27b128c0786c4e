"""Tests for the vectorized screening kernel and the parallel sweep engine.

The kernel's funnel (zero-fault / dead-end / forced / private-spare
peeling / Hall bounds / Kuhn residue) claims to be *exact*: every verdict
must equal brute-force matching.  The engine claims sharding and caching
never change a number: serial, parallel and cached executions must be
bit-identical.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.designs.catalog import DTMB_1_6, DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import (
    build_chip,
    build_flower_chip,
    build_with_primary_count,
)
from repro.errors import SimulationError
from repro.geometry.hexgrid import RectRegion
from repro.yieldsim.defects import IIDBernoulli
from repro.yieldsim.engine import (
    SweepEngine,
    chip_payload,
    payload_digest,
)
from repro.yieldsim.scheduler import chip_identity
from repro.yieldsim.kernel import (
    BAD,
    GOOD,
    PointSpec,
    RepairStructure,
    classify_repairable,
    fixed_fault_alive,
    kuhn_repairable,
    model_successes,
)
from repro.yieldsim.montecarlo import YieldSimulator
from repro.yieldsim.sweeps import (
    DEFAULT_P_GRID,
    defect_count_sweep,
    survival_sweep,
)


def brute_force_verdicts(chip, struct, alive):
    """Per-run repairability by the seed implementation's Kuhn matching."""
    sim = YieldSimulator(chip)
    out = np.empty(alive.shape[0], dtype=np.int8)
    for r in range(alive.shape[0]):
        faulty = np.nonzero(~alive[r, struct.needed_idx])[0]
        ok = len(faulty) == 0 or sim._repairable(faulty.tolist(), alive[r])
        out[r] = GOOD if ok else BAD
    return out


CHIPS = [
    pytest.param(lambda: build_chip(DTMB_1_6, RectRegion(10, 10)), id="dtmb16"),
    pytest.param(lambda: build_chip(DTMB_2_6, RectRegion(10, 10)), id="dtmb26"),
    pytest.param(lambda: build_chip(DTMB_3_6, RectRegion(8, 8)), id="dtmb36"),
    pytest.param(lambda: build_chip(DTMB_4_4, RectRegion(8, 8)), id="dtmb44"),
    pytest.param(lambda: build_flower_chip(60), id="flower"),
]


class TestScreeningKernel:
    @pytest.mark.parametrize("make_chip", CHIPS)
    @pytest.mark.parametrize("p", [0.3, 0.6, 0.85, 0.95, 0.99, 1.0])
    def test_survival_verdicts_match_brute_force(self, make_chip, p):
        chip = make_chip()
        struct = RepairStructure(chip)
        alive = np.random.default_rng(hash(p) % 2**32).random(
            (250, struct.n_cells)
        ) < p
        verdict, stats = classify_repairable(struct, alive)
        assert stats.runs == 250
        assert (verdict == brute_force_verdicts(chip, struct, alive)).all()

    @pytest.mark.parametrize("make_chip", CHIPS)
    def test_fixed_fault_verdicts_match_brute_force(self, make_chip):
        chip = make_chip()
        struct = RepairStructure(chip)
        rng = np.random.default_rng(11)
        for m in (0, 1, 4, 15, struct.n_cells // 2, struct.n_cells):
            alive = fixed_fault_alive(rng, struct.n_cells, m, 120)
            assert (~alive).sum() == 120 * m  # exactly m faults per run
            verdict, _ = classify_repairable(struct, alive)
            assert (verdict == brute_force_verdicts(chip, struct, alive)).all()

    def test_float64_bit_identical_to_seed_simulator(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        struct = RepairStructure(dtmb26_chip)
        for i, p in enumerate((0.88, 0.94, 0.99)):
            expected = sim.run_survival(p, runs=1500, seed=40 + i).successes
            got, _ = model_successes(
                struct, IIDBernoulli(p), 1500, seed=40 + i, dtype=np.float64
            )
            assert got == expected

    def test_screen_resolves_majority_without_matching(self, dtmb26_chip):
        struct = RepairStructure(dtmb26_chip)
        _, stats = model_successes(struct, IIDBernoulli(0.97), 4000, seed=3)
        assert stats.runs == 4000
        # At paper-regime p the screen decides nearly everything.
        assert stats.residue < 0.05 * stats.runs
        assert stats.screened + stats.residue == stats.runs

    def test_degree_one_design_never_needs_matching(self):
        struct = RepairStructure(build_flower_chip(60))
        assert struct.max_degree == 1
        _, stats = model_successes(struct, IIDBernoulli(0.9), 2000, seed=5)
        assert stats.residue == 0

    def test_kuhn_reference_agrees_with_simulator(self, dtmb26_chip):
        sim = YieldSimulator(dtmb26_chip)
        rng = np.random.default_rng(8)
        alive = rng.random(len(dtmb26_chip)) < 0.7
        faulty = np.nonzero(~alive[sim._needed_idx])[0].tolist()
        assert kuhn_repairable(sim._adj, faulty, alive) == sim._repairable(
            faulty, alive
        )

    def test_point_spec_validation(self, dtmb26_chip):
        n_cells = len(dtmb26_chip)
        with pytest.raises(SimulationError):
            PointSpec("survival", 1.5, 10, 1).validate(n_cells)
        with pytest.raises(SimulationError):
            PointSpec("survival", 0.9, 0, 1).validate(n_cells)
        with pytest.raises(SimulationError):
            PointSpec("fixed", n_cells + 1, 10, 1).validate(n_cells)
        with pytest.raises(SimulationError):
            PointSpec("bogus", 0.5, 10, 1).validate(n_cells)
        PointSpec("fixed", n_cells, 10, 1).validate(n_cells)


class TestSweepEngine:
    def test_serial_and_parallel_bit_identical(self):
        kwargs = dict(runs=800, seed=13)
        serial = survival_sweep(
            [DTMB_2_6, DTMB_3_6], [60], [0.9, 0.95, 1.0],
            engine=SweepEngine(jobs=1), **kwargs,
        )
        parallel = survival_sweep(
            [DTMB_2_6, DTMB_3_6], [60], [0.9, 0.95, 1.0],
            engine=SweepEngine(jobs=2), **kwargs,
        )
        assert [pt.estimate.successes for pt in serial] == [
            pt.estimate.successes for pt in parallel
        ]

    def test_defect_sweep_serial_parallel_identical(self, dtmb26_chip):
        serial = defect_count_sweep(
            dtmb26_chip, [2, 8, 14], runs=600, seed=4, engine=SweepEngine(jobs=1)
        )
        parallel = defect_count_sweep(
            dtmb26_chip, [2, 8, 14], runs=600, seed=4, engine=SweepEngine(jobs=2)
        )
        assert [pt.estimate.successes for pt in serial] == [
            pt.estimate.successes for pt in parallel
        ]

    def test_sweep_matches_default_engine(self):
        a = survival_sweep([DTMB_2_6], [60], [0.93], runs=700, seed=2)
        b = survival_sweep(
            [DTMB_2_6], [60], [0.93], runs=700, seed=2, engine=SweepEngine()
        )
        assert a[0].estimate.successes == b[0].estimate.successes

    def test_point_seed_isolation(self, dtmb26_chip):
        """A point's result must not depend on its position in the sweep."""
        engine = SweepEngine()
        lone = engine.survival_estimates(dtmb26_chip, [(0.93, 77)], 500)
        grid = engine.survival_estimates(
            dtmb26_chip, [(0.9, 5), (0.93, 77), (0.99, 6)], 500
        )
        assert lone[0].successes == grid[1].successes

    def test_progress_reporting(self, dtmb26_chip):
        calls = []
        engine = SweepEngine(progress=lambda done, total: calls.append((done, total)))
        engine.survival_estimates(dtmb26_chip, [(0.9, 1), (0.95, 2)], 200)
        assert calls and calls[-1][0] == calls[-1][1]

    def test_screen_stats_accumulate(self, dtmb26_chip):
        engine = SweepEngine()
        engine.survival_estimates(dtmb26_chip, [(0.95, 1)], 300)
        assert engine.screen_stats.runs == 300

    def test_jobs_validation(self):
        with pytest.raises(SimulationError):
            SweepEngine(jobs=0)


class TestResultCache:
    def test_cache_roundtrip_and_hit(self, dtmb26_chip, tmp_path):
        cold = SweepEngine(cache_dir=str(tmp_path))
        first = cold.survival_estimates(dtmb26_chip, [(0.92, 3), (0.97, 4)], 400)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)

        warm = SweepEngine(cache_dir=str(tmp_path))
        second = warm.survival_estimates(dtmb26_chip, [(0.92, 3), (0.97, 4)], 400)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert [e.successes for e in first] == [e.successes for e in second]

    def test_cache_key_invalidation(self, dtmb26_chip, tmp_path):
        a = SweepEngine(cache_dir=str(tmp_path))
        a.survival_estimates(dtmb26_chip, [(0.92, 3)], 400)
        for kwargs, label in [
            (((0.92, 9), 400), "seed"),
            (((0.93, 3), 400), "p"),
            (((0.92, 3), 500), "runs"),
        ]:
            engine = SweepEngine(cache_dir=str(tmp_path))
            (point, runs) = kwargs
            engine.survival_estimates(dtmb26_chip, [point], runs)
            assert engine.cache_hits == 0, f"stale hit when {label} changed"

    def test_cache_distinguishes_chips(self, tmp_path):
        chip_a = build_chip(DTMB_2_6, RectRegion(8, 8))
        chip_b = build_chip(DTMB_3_6, RectRegion(8, 8))
        engine = SweepEngine(cache_dir=str(tmp_path))
        engine.survival_estimates(chip_a, [(0.95, 1)], 300)
        engine.survival_estimates(chip_b, [(0.95, 1)], 300)
        assert engine.cache_hits == 0 and engine.cache_misses == 2

    def test_corrupt_cache_entry_recomputed(self, dtmb26_chip, tmp_path):
        engine = SweepEngine(cache_dir=str(tmp_path))
        first = engine.survival_estimates(dtmb26_chip, [(0.94, 6)], 300)
        for entry in tmp_path.iterdir():
            entry.write_text("{not json")
        again = SweepEngine(cache_dir=str(tmp_path))
        second = again.survival_estimates(dtmb26_chip, [(0.94, 6)], 300)
        assert again.cache_hits == 0
        assert second[0].successes == first[0].successes

    def test_payload_digest_ignores_cosmetics(self, dtmb26_chip):
        clone = dtmb26_chip.copy(name="renamed")
        clone.mark_faulty(clone.coords[0])  # health must not affect the key
        assert payload_digest(chip_payload(dtmb26_chip)) == payload_digest(
            chip_payload(clone)
        )

    def test_payload_digest_tracks_needed_set(self, dtmb26_chip):
        needed = tuple(c.coord for c in dtmb26_chip.primaries())[:5]
        assert payload_digest(chip_payload(dtmb26_chip)) != payload_digest(
            chip_payload(dtmb26_chip, needed)
        )

    def test_flat_cache_entry_never_served_to_adaptive_request(
        self, dtmb26_chip, tmp_path
    ):
        """Regression: the point key includes the stop-rule digest, so a
        cached flat-budget point cannot satisfy an adaptive request (whose
        stream and effective budget differ), and vice versa."""
        from repro.yieldsim.stats import StopRule

        rule = StopRule(target_half_width=0.02, min_runs=200, batch_runs=200)
        flat = SweepEngine(cache_dir=str(tmp_path))
        flat.survival_estimates(dtmb26_chip, [(0.95, 3)], 1000)
        assert (flat.cache_hits, flat.cache_misses) == (0, 1)

        adaptive = SweepEngine(cache_dir=str(tmp_path))
        first = adaptive.survival_estimates(
            dtmb26_chip, [(0.95, 3)], 1000, stop=rule
        )
        assert (adaptive.cache_hits, adaptive.cache_misses) == (0, 1)

        # The adaptive entry is re-served — with its effective budget —
        # only to the identical adaptive request...
        warm = SweepEngine(cache_dir=str(tmp_path))
        again = warm.survival_estimates(dtmb26_chip, [(0.95, 3)], 1000, stop=rule)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert (again[0].successes, again[0].trials) == (
            first[0].successes,
            first[0].trials,
        )
        # ...not to a request under a *different* rule.
        other_rule = StopRule(target_half_width=0.05, min_runs=200, batch_runs=200)
        other = SweepEngine(cache_dir=str(tmp_path))
        other.survival_estimates(dtmb26_chip, [(0.95, 3)], 1000, stop=other_rule)
        assert other.cache_hits == 0
        # And the flat entry still hits for flat requests.
        flat_again = SweepEngine(cache_dir=str(tmp_path))
        flat_again.survival_estimates(dtmb26_chip, [(0.95, 3)], 1000)
        assert (flat_again.cache_hits, flat_again.cache_misses) == (1, 0)

    def test_sharded_cache_key_distinct_from_flat(self, dtmb26_chip, tmp_path):
        """Sharded (batched-stream) results live under their own keys: a
        flat entry and a sharded entry for the same spec coexist."""
        flat = SweepEngine(cache_dir=str(tmp_path))
        flat.survival_estimates(dtmb26_chip, [(0.95, 6)], 1000)
        sharded = SweepEngine(cache_dir=str(tmp_path), shard_runs=400)
        sharded.survival_estimates(dtmb26_chip, [(0.95, 6)], 1000)
        assert sharded.cache_hits == 0 and sharded.cache_misses == 1
        warm = SweepEngine(cache_dir=str(tmp_path), shard_runs=400)
        warm.survival_estimates(dtmb26_chip, [(0.95, 6)], 1000)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)


class TestChipIdentity:
    """``chip_identity`` is ``chip_payload`` + ``payload_digest``, computed
    once per chip object and needed set."""

    @staticmethod
    def expected(chip, needed=None):
        payload = chip_payload(chip, needed)
        return payload, payload_digest(payload)

    def test_identity_equals_payload_and_digest(self, dtmb26_chip):
        assert chip_identity(dtmb26_chip) == self.expected(dtmb26_chip)
        clone = dtmb26_chip.copy()
        assert chip_identity(clone) == self.expected(dtmb26_chip)

    def test_health_and_labels_do_not_enter_the_identity(self, dtmb26_chip):
        clone = dtmb26_chip.copy(name="renamed")
        clone.mark_faulty(clone.coords[0])
        clone.set_label(clone.coords[1], "mixer")
        assert chip_identity(clone) == self.expected(clone)
        assert chip_identity(clone)[1] == chip_identity(dtmb26_chip)[1]

    def test_needed_order_does_not_matter(self, dtmb26_chip):
        needed = tuple(c.coord for c in dtmb26_chip.primaries())[:5]
        forward = chip_identity(dtmb26_chip, needed)
        backward = chip_identity(dtmb26_chip, needed[::-1])
        assert forward == backward == self.expected(dtmb26_chip, needed)
        assert forward[1] != chip_identity(dtmb26_chip)[1]

    def test_second_call_returns_the_same_object(self, dtmb26_chip):
        needed = tuple(c.coord for c in dtmb26_chip.primaries())[:3]
        assert chip_identity(dtmb26_chip) is chip_identity(dtmb26_chip)
        assert chip_identity(dtmb26_chip, needed) is chip_identity(
            dtmb26_chip, list(needed)
        )

    def test_identity_cache_lets_chips_die(self, small_region):
        """The memo must not keep its chip alive: callers that build a
        fresh chip per request would otherwise grow without bound."""
        chip = build_chip(DTMB_2_6, small_region)
        chip_identity(chip)
        alive = weakref.ref(chip)
        del chip
        gc.collect()
        assert alive() is None


class TestEngineMatchesSeedNumbers:
    def test_engine_f64_sweep_equals_seed_implementation(self):
        """The engine with float64 draws reproduces the seed sweep exactly."""
        chip = build_with_primary_count(DTMB_2_6, 60).build()
        sim = YieldSimulator(chip)
        ps = list(DEFAULT_P_GRID[:4])
        expected = []
        counter = 0
        for p in ps:  # the historical survival_sweep derivation
            counter += 1
            expected.append(sim.run_survival(p, runs=600, seed=100 + counter).successes)
        got = survival_sweep(
            [DTMB_2_6], [60], ps, runs=600, seed=100,
            engine=SweepEngine(dtype=np.float64),
        )
        assert [pt.estimate.successes for pt in got] == expected
