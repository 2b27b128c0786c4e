"""Scheduler/executor split: the execution backend never changes a number.

The refactor's contract: :class:`~repro.yieldsim.scheduler.PointScheduler`
owns every decision that affects results (key derivation, fold order,
stop-rule checks, speculation discard) while the
:class:`~repro.yieldsim.executors.Executor` owns only *where* compute
units run.  These tests sweep the executor grid — serial, process pool,
inline test executor at several capacities — over flat, adaptive and
sharded points, matching and criterion alike — and assert bit-identical
estimates and screen/funnel counter totals.
"""

from __future__ import annotations

import pytest

from repro.functional import RoutingCriterion
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.executors import (
    InlineExecutor,
    PoolExecutor,
    SerialExecutor,
    default_executor,
)
from repro.yieldsim.kernel import PointSpec
from repro.yieldsim.stats import StopRule

RULE = StopRule(target_half_width=0.02, min_runs=200, batch_runs=200)
TIGHT = StopRule(target_half_width=0.004, min_runs=200, batch_runs=200)


ROUTING = RoutingCriterion(deadline=200)


def _tasks(dtmb26_chip, dtmb16_chip):
    """A mixed workload: flat, adaptive (early-stop and ceiling-bound),
    fixed-regime and functional-criterion points, across two chips."""
    return [
        EnginePoint(dtmb26_chip, PointSpec("survival", 0.95, 1200, 11)),
        EnginePoint(dtmb26_chip, PointSpec("survival", 0.90, 2000, 12),
                    stop=RULE),
        EnginePoint(dtmb16_chip, PointSpec("survival", 0.97, 2000, 13),
                    stop=TIGHT),
        EnginePoint(dtmb16_chip, PointSpec("fixed", 4, 800, 14)),
        EnginePoint(dtmb26_chip, PointSpec("survival", 0.93, 1500, 15)),
        EnginePoint(dtmb26_chip,
                    PointSpec("survival", 0.95, 300, 16, criterion=ROUTING)),
        EnginePoint(dtmb26_chip,
                    PointSpec("survival", 0.97, 800, 17, criterion=ROUTING),
                    stop=RULE),
    ]


def _estimates(engine, tasks):
    """Per-task ``(successes, trials)`` plus the run's screen-stat and
    criterion-funnel totals — every one must be executor-independent."""
    estimates = [(e.successes, e.trials) for e in engine.run_points(tasks)]
    funnel = {}
    for record in engine.point_log:
        for key, value in (record.funnel or {}).items():
            funnel[key] = funnel.get(key, 0) + value
    return estimates, engine.screen_stats.as_dict(), funnel


class TestExecutorBitIdentity:
    """serial == pool == inline, flat and adaptive and sharded."""

    @pytest.fixture()
    def reference(self, dtmb26_chip, dtmb16_chip):
        return _estimates(SweepEngine(), _tasks(dtmb26_chip, dtmb16_chip))

    @pytest.mark.parametrize(
        "make_executor",
        [
            pytest.param(lambda: SerialExecutor(), id="serial-explicit"),
            pytest.param(lambda: InlineExecutor(), id="inline-c1"),
            pytest.param(lambda: InlineExecutor(capacity=3), id="inline-c3"),
            pytest.param(lambda: InlineExecutor(capacity=8), id="inline-c8"),
            pytest.param(lambda: PoolExecutor(3), id="pool-j3"),
        ],
    )
    def test_injected_executor_matches_serial(
        self, reference, dtmb26_chip, dtmb16_chip, make_executor
    ):
        engine = SweepEngine(executor=make_executor())
        assert _estimates(engine, _tasks(dtmb26_chip, dtmb16_chip)) == reference

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_jobs_flag_matches_serial(
        self, reference, dtmb26_chip, dtmb16_chip, jobs
    ):
        engine = SweepEngine(jobs=jobs)
        assert _estimates(engine, _tasks(dtmb26_chip, dtmb16_chip)) == reference

    @pytest.mark.parametrize("shard_runs", [500, 700])
    @pytest.mark.parametrize("capacity", [1, 4])
    def test_sharded_inline_matches_sharded_serial(
        self, dtmb26_chip, dtmb16_chip, shard_runs, capacity
    ):
        # Sharding derives per-shard seed streams, so sharded numbers
        # legitimately differ from unsharded ones — the invariant is that
        # they never depend on the executor.
        sharded_reference = _estimates(
            SweepEngine(shard_runs=shard_runs), _tasks(dtmb26_chip, dtmb16_chip)
        )
        engine = SweepEngine(
            shard_runs=shard_runs, executor=InlineExecutor(capacity=capacity)
        )
        assert (
            _estimates(engine, _tasks(dtmb26_chip, dtmb16_chip))
            == sharded_reference
        )

    def test_default_executor_selection(self):
        assert isinstance(default_executor(1), SerialExecutor)
        assert isinstance(default_executor(4), PoolExecutor)


class TestMixedPlan:
    """Every plan shape in one ``run_points`` call: a flat point, a
    sharded point, an adaptive point on a second chip and a fixed-regime
    point share one fold loop, whatever the executor."""

    @staticmethod
    def _observe(executor, dtmb26_chip, dtmb16_chip):
        tasks = [
            EnginePoint(dtmb26_chip, PointSpec("survival", 0.95, 800, 31)),
            EnginePoint(dtmb26_chip, PointSpec("survival", 0.93, 2500, 32)),
            EnginePoint(dtmb16_chip, PointSpec("survival", 0.90, 3000, 33),
                        stop=RULE),
            EnginePoint(dtmb26_chip, PointSpec("fixed", 3, 600, 34)),
        ]
        engine = SweepEngine(shard_runs=1000, executor=executor)
        estimates = [(e.successes, e.trials) for e in engine.run_points(tasks)]
        log = [(record.effective, record.adaptive) for record in engine.point_log]
        return estimates, log, engine.screen_stats.as_dict()

    @pytest.mark.parametrize(
        "make_executor",
        [
            pytest.param(lambda: InlineExecutor(capacity=3), id="inline-c3"),
            pytest.param(lambda: PoolExecutor(2), id="pool-j2"),
        ],
    )
    def test_mixed_plan_matches_serial(
        self, dtmb26_chip, dtmb16_chip, make_executor
    ):
        reference = self._observe(SerialExecutor(), dtmb26_chip, dtmb16_chip)
        _, log, _ = reference
        assert log[0] == (800, False) and log[1] == (2500, False)
        assert log[2][1] is True and log[3] == (600, False)
        assert (
            self._observe(make_executor(), dtmb26_chip, dtmb16_chip)
            == reference
        )


class TestInlineExecutorObservability:
    """The test executor exposes what the scheduler actually scheduled."""

    def test_speculation_is_visible_and_discarded(self, dtmb26_chip):
        # A stop rule that halts well before the flat ceiling, with
        # capacity > 1: the scheduler must speculate past the stop point
        # and discard the overshoot without folding it.
        # A Wilson half-width target of 0.4 is met at any outcome once
        # min_runs is reached, so the point stops at its very first fold
        # — while capacity 4 has already scheduled three more batches.
        executor = InlineExecutor(capacity=4)
        engine = SweepEngine(executor=executor)
        wide = StopRule(target_half_width=0.4, min_runs=200, batch_runs=200)
        task = EnginePoint(
            dtmb26_chip, PointSpec("survival", 0.90, 20_000, 3), stop=wide
        )
        folds = []
        [estimate] = engine.run_points(
            [task], on_fold=lambda i, s, t: folds.append(t)
        )
        assert estimate.trials == 200  # stopped at the first fold
        assert len(folds) == 1
        assert executor.completed == executor.submitted
        # Speculation: more units were scheduled than were folded into
        # the estimate; the overshoot was computed and thrown away.
        assert executor.submitted == 4

    def test_capacity_one_never_speculates(self, dtmb26_chip):
        executor = InlineExecutor(capacity=1)
        engine = SweepEngine(executor=executor)
        task = EnginePoint(
            dtmb26_chip, PointSpec("survival", 0.90, 20_000, 3), stop=RULE
        )
        folds = []
        [estimate] = engine.run_points(
            [task], on_fold=lambda i, s, t: folds.append(t)
        )
        # capacity 1 degenerates to exact serial: every scheduled unit
        # is folded, nothing thrown away.
        assert executor.submitted == len(folds)
        assert folds[-1] == estimate.trials


class TestCacheCounters:
    def test_cache_hit_miss_accounting(self, tmp_path, dtmb26_chip):
        task = lambda: EnginePoint(  # noqa: E731 - fresh task per run
            dtmb26_chip, PointSpec("survival", 0.95, 400, 9)
        )
        first = SweepEngine(cache_dir=str(tmp_path))
        [a] = first.run_points([task()])
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = SweepEngine(cache_dir=str(tmp_path))
        [b] = second.run_points([task()])
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert (a.successes, a.trials) == (b.successes, b.trials)

    def test_uncached_engine_counts_nothing(self, dtmb26_chip):
        engine = SweepEngine()
        engine.run_points(
            [EnginePoint(dtmb26_chip, PointSpec("survival", 0.95, 200, 1))]
        )
        assert (engine.cache_hits, engine.cache_misses) == (0, 0)


class TestFoldHook:
    def test_on_fold_reports_in_order_cumulative_counts(self, dtmb26_chip):
        seen = []
        engine = SweepEngine(executor=InlineExecutor(capacity=4))
        task = EnginePoint(
            dtmb26_chip, PointSpec("survival", 0.90, 3000, 21), stop=RULE
        )
        [estimate] = engine.run_points(
            [task], on_fold=lambda i, s, t: seen.append((i, s, t))
        )
        assert seen  # adaptive points stream their folds
        indices = [i for i, _, _ in seen]
        assert indices == sorted(indices)
        trials = [t for _, _, t in seen]
        assert all(a < b for a, b in zip(trials, trials[1:]))
        assert seen[-1][1:] == (estimate.successes, estimate.trials)


class TestDeprecationShim:
    """The pre-split deep-import shim is gone: the facade module no longer
    resolves names lazily, so unknown attributes fail like any module's."""

    def test_unknown_names_still_raise(self):
        import repro.yieldsim.engine as engine_mod

        with pytest.raises(AttributeError):
            engine_mod.definitely_not_a_name
