"""Within-point run sharding: bit-identity and seed-derivation properties.

Sharded execution claims its result is a pure function of
``(spec, batch size)`` — never of where the batches run.  These tests
sweep a seeded grid of (batch size, shard count, jobs, seed) combinations
(hypothesis-style property checks with explicit examples, so failures are
exactly reproducible) and verify:

* sharded results are bit-identical for arbitrary shard counts, serial or
  parallel;
* ``SeedSequence.spawn``-derived shard seeds never collide — across the
  shards of a point, or across distinct points at any shard index;
* the per-shard seed is constructible in isolation and matches the
  canonical ``SeedSequence(seed).spawn(n)`` derivation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.kernel import (
    PointSpec,
    point_entropy,
    shard_plan,
    shard_seed,
)

RUNS = 1500


class TestShardSeedDerivation:
    def test_matches_canonical_seedsequence_spawn(self):
        for seed in (0, 7, 2005, 2**40 + 1):
            spawned = np.random.SeedSequence(seed).spawn(6)
            for k in range(6):
                ours = shard_seed(seed, k)
                assert (
                    ours.generate_state(4).tolist()
                    == spawned[k].generate_state(4).tolist()
                )

    def test_shard_seeds_never_collide_across_points(self):
        """No (point seed, shard index) pair shares a stream with any
        other — the property that lets every point of a sweep shard
        itself without any cross-point coordination."""
        states = set()
        for point_seed in range(150):
            for index in range(8):
                state = tuple(shard_seed(point_seed, index).generate_state(2))
                assert state not in states, (point_seed, index)
                states.add(state)
        assert len(states) == 150 * 8

    def test_shard_seed_differs_from_parent_stream(self):
        parent = tuple(np.random.SeedSequence(42).generate_state(2))
        child = tuple(shard_seed(42, 0).generate_state(2))
        assert parent != child

    def test_shard_seed_rejects_negative_index(self):
        with pytest.raises(SimulationError):
            shard_seed(1, -1)

    def test_point_entropy_normalization(self):
        assert point_entropy(17) == 17
        assert point_entropy(np.int64(17)) == 17
        a, b = point_entropy(None), point_entropy(None)
        assert a != b  # fresh entropy every time
        with pytest.raises(SimulationError):
            point_entropy(-3)
        with pytest.raises(SimulationError):
            point_entropy(np.random.default_rng(1))
        with pytest.raises(SimulationError):
            point_entropy(True)

    def test_shard_plan_partitions_exactly(self):
        for runs in (1, 99, 100, 101, 1500, 10_007):
            for batch in (1, 7, 100, 256, 1500, 20_000):
                plan = shard_plan(runs, batch)
                assert sum(plan) == runs
                assert all(1 <= size <= batch for size in plan)
                assert len(plan) == -(-runs // batch)  # ceil division
        with pytest.raises(SimulationError):
            shard_plan(0, 10)
        with pytest.raises(SimulationError):
            shard_plan(10, 0)


class TestShardedBitIdentity:
    """Seeded grid: sharded == unsharded-batched == parallel, always."""

    @pytest.mark.parametrize("batch", [128, 500, 1024])
    @pytest.mark.parametrize("seed", [3, 77])
    def test_shard_count_never_changes_survival_result(
        self, dtmb26_chip, batch, seed
    ):
        """All engines below compute the same batch plan from the same
        spawned streams; only the shard unit (and thus shard count)
        varies the schedule, never the fold."""
        reference = SweepEngine(shard_runs=batch).survival_estimates(
            dtmb26_chip, [(0.94, seed)], RUNS
        )[0]
        parallel = SweepEngine(jobs=3, shard_runs=batch).survival_estimates(
            dtmb26_chip, [(0.94, seed)], RUNS
        )[0]
        assert (reference.successes, reference.trials) == (
            parallel.successes,
            parallel.trials,
        )

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_fixed_fault_sharding_identity(self, dtmb26_chip, jobs):
        engine = SweepEngine(jobs=jobs, shard_runs=400)
        estimates = engine.fixed_fault_estimates(
            dtmb26_chip, [(4, 9), (12, 9)], RUNS
        )
        baseline = SweepEngine(shard_runs=400).fixed_fault_estimates(
            dtmb26_chip, [(4, 9), (12, 9)], RUNS
        )
        assert [(e.successes, e.trials) for e in estimates] == [
            (e.successes, e.trials) for e in baseline
        ]

    def test_mixed_sweep_flat_and_sharded_points(self, dtmb26_chip, dtmb16_chip):
        """A sweep mixing legacy flat points (below the shard threshold)
        and sharded ones stays bit-identical across jobs."""
        tasks = [
            EnginePoint(dtmb26_chip, PointSpec("survival", 0.93, 200, 5)),
            EnginePoint(dtmb26_chip, PointSpec("survival", 0.97, RUNS, 6)),
            EnginePoint(dtmb16_chip, PointSpec("survival", 0.95, RUNS, 7)),
            EnginePoint(dtmb16_chip, PointSpec("fixed", 6, 200, 8)),
        ]
        outcomes = []
        for jobs in (1, 3):
            engine = SweepEngine(jobs=jobs, shard_runs=512)
            outcomes.append(
                [(e.successes, e.trials) for e in engine.run_points(tasks)]
            )
        assert outcomes[0] == outcomes[1]
        # The two small points stayed on the legacy path at full budget.
        assert outcomes[0][0][1] == 200 and outcomes[0][3][1] == 200

    def test_sharded_point_below_threshold_uses_legacy_stream(self, dtmb26_chip):
        """shard_runs only reroutes points *bigger* than the threshold:
        smaller points keep the legacy single-stream result."""
        legacy = SweepEngine().survival_estimates(dtmb26_chip, [(0.93, 4)], 600)
        thresholded = SweepEngine(shard_runs=600).survival_estimates(
            dtmb26_chip, [(0.93, 4)], 600
        )
        assert legacy[0].successes == thresholded[0].successes

    def test_single_shard_stream_is_the_spawned_stream(self, dtmb26_chip):
        """A one-batch sharded point equals a point computed directly from
        the spawn-derived generator — pinning the stream definition."""
        from repro.yieldsim.defects import IIDBernoulli
        from repro.yieldsim.kernel import RepairStructure, model_successes

        est = SweepEngine(shard_runs=500).survival_estimates(
            dtmb26_chip, [(0.95, 21)], 800
        )[0]
        struct = RepairStructure(dtmb26_chip)
        rng0 = np.random.default_rng(shard_seed(21, 0))
        rng1 = np.random.default_rng(shard_seed(21, 1))
        got0, _, _ = model_successes(struct, IIDBernoulli(0.95), 500, seed=rng0)
        got1, _, _ = model_successes(struct, IIDBernoulli(0.95), 300, seed=rng1)
        assert est.successes == got0 + got1

    def test_shard_runs_validation(self):
        with pytest.raises(SimulationError):
            SweepEngine(shard_runs=0)
