"""Sweep execution facade: a pure scheduler wired to a pluggable executor.

This module turns the per-point Monte-Carlo work of the yield sweeps
(Figures 7, 9, 10, 13 and Table 1's companions) into independent,
shardable units and runs them through the vectorized screening kernel.
Since the scheduler/executor split it is a thin facade over two layers:

* :mod:`repro.yieldsim.scheduler` — the pure
  :class:`~repro.yieldsim.scheduler.PointScheduler`: chip payload
  canonicalization, point-cache key derivation and the
  :class:`~repro.yieldsim.scheduler.PointCache` with its local and
  remote tiers, per-point fold plans, compute-unit grouping, and the
  one strict in-order fold loop with stop-rule speculation for adaptive
  points.
* :mod:`repro.yieldsim.executors` — *where* compute units run: the
  :class:`~repro.yieldsim.executors.Executor` protocol with
  :class:`~repro.yieldsim.executors.SerialExecutor` (in-process),
  :class:`~repro.yieldsim.executors.PoolExecutor`
  (``ProcessPoolExecutor``-backed) and
  :class:`~repro.yieldsim.executors.InlineExecutor` (deterministic
  in-process speculation, for tests).

:class:`SweepEngine` keeps the historical user-facing API —
``SweepEngine(jobs=..., cache_dir=..., shard_runs=...)`` — plus run
accounting (cache traffic, screen stats, budget totals and
:attr:`~SweepEngine.point_log`, which holds the scheduler's own
:class:`~repro.yieldsim.scheduler.PointRecord` objects) and a
convenience estimator.  Pass ``executor=`` to pin a specific backend;
otherwise ``jobs`` picks the serial or pool backend exactly as before.

The screen->match funnel
------------------------
Every point is simulated by :mod:`repro.yieldsim.kernel`: fault maps for
all runs are drawn in bulk with numpy, a funnel of exact vectorized
reductions (zero-fault / dead-end, forced-move and private-spare peeling
over runs packed eight per byte / Hall bounds) decides the overwhelming
majority of runs, and only the ambiguous residue falls back to per-run
integer Kuhn matching.  The
funnel is *exact*, so the engine's numbers equal brute-force
``YieldSimulator`` matching run for run; with ``dtype=float64`` they are
bit-identical to it.

The seed-derivation contract
----------------------------
Each sweep point carries its own integer seed, derived by the *caller*
(``sweeps.py`` keeps the historical ``base_seed + counter`` scheme) and
consumed by a fresh ``numpy`` Generator for that point alone.  No point
ever reads another point's stream, so:

* a sweep is exactly reproducible from its base seed;
* any single point can be recomputed in isolation;
* serial, process-pool and inline execution are **bit-identical** — the
  executor only changes *where* a unit is computed and how far the
  scheduler speculates, never what anything computes (results fold in a
  fixed order regardless; see :mod:`repro.yieldsim.scheduler`).

Within-point sharding and adaptive budgets
------------------------------------------
A point enters *batched* execution when it carries a
:class:`~repro.yieldsim.stats.StopRule` (adaptive budget) or when its
``runs`` exceed the engine's ``shard_runs`` (one huge point — a p-grid
corner at 10^6+ runs — split across the workers).  A batched point's
stream is defined by its batch plan alone: batch ``k`` draws from
``SeedSequence(seed, spawn_key=(k,))`` (the ``SeedSequence.spawn``
derivation, constructible per shard in isolation), so the point's result
is a pure function of (spec, rule/batch size).  Under a stop rule,
batches are folded strictly in batch order and the rule is checked after
each fold; a multi-capacity executor merely speculates on later batches
and discards them past the stop point, so the effective budget is
deterministic given the seed.  An adaptive point that never meets its
target spends exactly its full plan — bit-identical to the fixed-budget
batched run of the same point.

Flat, unsharded points (the default) are the one-fold case of the same
fold loop: their single fold draws the point's whole budget from its own
seed stream, so they remain bit-identical to the pre-engine
implementation.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.chip.biochip import Biochip
from repro.errors import SimulationError
from repro.yieldsim.cachestore import CacheStore, StoreStats
from repro.obs.trace import Tracer
from repro.yieldsim.executors import Executor, default_executor
from repro.yieldsim.kernel import PointSpec, ScreenStats
from repro.yieldsim.resilience import ResilienceStats, RetryPolicy
from repro.yieldsim.scheduler import (
    ENGINE_VERSION,
    EnginePoint,
    PointCache,
    PointRecord,
    PointScheduler,
    chip_payload,
    payload_digest,
)
from repro.yieldsim.stats import StopRule, YieldEstimate

__all__ = [
    "SweepEngine",
    "EnginePoint",
    "PointRecord",
    "ENGINE_VERSION",
    "chip_payload",
    "payload_digest",
]


class SweepEngine:
    """Executes batches of Monte-Carlo points, optionally in parallel.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs in-process; results are
        bit-identical either way (see the module docstring's seed
        contract).  Ignored when ``executor`` is given.
    cache_dir:
        Directory for the on-disk point cache; ``None`` disables caching.
        Created on first use.  Safe to share between serial and parallel
        runs — entries are keyed per point.
    progress:
        Optional ``progress(done, total)`` callback, invoked once for the
        cache hits and after every computed point.
    dtype:
        Uniform-draw dtype for the survival regime.  The ``float32``
        default halves RNG cost; use ``numpy.float64`` to reproduce the
        legacy ``YieldSimulator`` stream bit for bit.
    shard_runs:
        Within-point sharding threshold *and* batch size: any point whose
        budget exceeds this many runs is split into ``shard_runs``-sized
        batches with per-shard ``SeedSequence.spawn`` seeds and computed
        across the executor's capacity.  ``None`` (default) never shards
        within a point.  Sharded results are bit-identical whatever the
        executor, but use the spawned batch streams rather than the
        legacy single stream.
    executor:
        An explicit :class:`~repro.yieldsim.executors.Executor` backend,
        which stays the caller's to close.  ``None`` (default) derives
        one from ``jobs`` at the first run and keeps it for the engine's
        lifetime —
        :class:`~repro.yieldsim.executors.SerialExecutor` for ``jobs=1``,
        :class:`~repro.yieldsim.executors.PoolExecutor` otherwise, whose
        worker pool every later run reuses until :meth:`close`.  Pass
        an :class:`~repro.yieldsim.executors.InlineExecutor` to count
        compute units deterministically in tests.
    retry:
        A :class:`~repro.yieldsim.resilience.RetryPolicy` to apply to
        failed, hung and corrupt compute units (and broken process
        pools).  ``None`` (default) keeps the historical fail-fast
        behaviour.  Retries never change numbers — every unit is a pure
        function of its arguments — only whether a fault is survived.
    checkpoint:
        ``True`` journals each batched point's fold state to
        ``cache_dir`` after every in-order fold, so a preempted adaptive
        point resumes at the fold it reached with byte-identical output.
        Requires ``cache_dir``; flat points are already covered by the
        point cache itself.
    cache_store:
        A remote :class:`~repro.yieldsim.cachestore.CacheStore` (shared
        filesystem or HTTP), the point cache's second tier: a local
        miss reads through to it, point writes are uploaded
        put-if-absent, so a fleet of engines reuses each other's points.
        Works with or without ``cache_dir`` (without one, the local tier
        is in-memory for the life of the engine).  A dead or corrupt
        remote degrades to misses plus counted incidents
        (:attr:`store_stats`), never an exception — and never changes
        any number.  Checkpoints stay local-only.
    tracer:
        An :class:`~repro.obs.trace.Tracer` to record the unit lifecycle
        (points, chunks/shards, retries, folds, cache traffic) as Chrome
        trace events.  ``None`` (default) records nothing and costs
        nothing.  Also assignable later via the :attr:`tracer` property.
        Tracing never changes any number.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        dtype: type = np.float32,
        shard_runs: Optional[int] = None,
        executor: Optional[Executor] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: bool = False,
        cache_store: Optional[CacheStore] = None,
        tracer: Optional[Tracer] = None,
    ):
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        if checkpoint and cache_dir is None:
            raise SimulationError("checkpoint=True requires a cache_dir")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.progress = progress
        self.executor = executor
        #: the executor derived from ``jobs`` (built lazily, closed by close())
        self._own_executor: Optional[Executor] = None
        self.retry = retry
        self.checkpoint = checkpoint
        self.cache_store = cache_store
        #: incident counters shared by the cache, scheduler and serve layer
        self.resilience = ResilienceStats()
        #: tier traffic counters (all zero unless a cache_store is set)
        self.store_stats = StoreStats()
        #: the pure scheduling core (key derivation, cache, fold order)
        self.cache = PointCache(
            cache_dir, np.dtype(dtype).name, stats=self.resilience,
            remote=cache_store, store_stats=self.store_stats,
        )
        self.scheduler = PointScheduler(
            self.cache, dtype=dtype, shard_runs=shard_runs,
            retry=retry, checkpoint=checkpoint, stats=self.resilience,
            tracer=tracer,
        )
        #: merged screen statistics of everything this engine computed
        self.screen_stats = ScreenStats()
        #: cumulative requested/effective budget totals across run_points calls
        self.runs_requested = 0
        self.runs_effective = 0
        #: the scheduler's record of every point, appended in task order
        self.point_log: List[PointRecord] = []

    # -- telemetry --------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """The span tracer armed on this engine (``None`` = off).

        Assignable at any time between runs: the serving layer arms a
        fresh tracer per traced request (under its compute lock) and
        disarms it afterwards.  Tracing is out-of-band — results are
        bit-identical with it on or off.
        """
        return self.scheduler.tracer

    @tracer.setter
    def tracer(self, tracer: Optional[Tracer]) -> None:
        self.scheduler.tracer = tracer

    # -- cache counters (facade over PointCache, for tests and reports) --------
    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    # -- request identity ------------------------------------------------------
    def point_key(self, task: EnginePoint) -> str:
        """The point-cache key of one task — its request identity.

        Two tasks with equal keys compute the identical result, whatever
        engine or executor runs them; the serving layer coalesces
        concurrent identical requests by this string before any compute
        is scheduled.
        """
        return self.scheduler.key_for(task)

    # -- execution -------------------------------------------------------------
    def run_points(
        self,
        tasks: Sequence[EnginePoint],
        on_fold: Optional[Callable[[int, int, int], None]] = None,
    ) -> List[YieldEstimate]:
        """Estimates for ``tasks``, in order; shards across the executor.

        Every point runs through the scheduler's one fold loop: a flat
        point is a single fold on its own seed stream (bit-identical to
        the pre-engine implementation); a point with a stop rule or
        beyond ``shard_runs`` folds its batch plan (see the module
        docstring).  Each estimate's ``trials`` is the point's *effective*
        budget — equal to ``spec.runs`` for flat points, possibly smaller
        for adaptive ones — and :attr:`point_log` keeps the scheduler's
        :class:`~repro.yieldsim.scheduler.PointRecord` of every task.
        ``on_fold(i, successes, trials)`` observes every in-order fold of
        a computed point (cumulative values; one call for a flat point),
        which is what ``repro serve`` streams as per-fold NDJSON
        progress.

        Without an explicit ``executor``, every call runs on the engine's
        own executor, so a ``jobs > 1`` engine forks its worker pool once
        and reuses it until :meth:`close`.
        """
        executor = self.executor
        if executor is None:
            if self._own_executor is None:
                self._own_executor = default_executor(self.jobs)
            executor = self._own_executor
        records = self.scheduler.run(
            tasks, executor, progress=self.progress, on_fold=on_fold,
        )
        for record in records:
            self.screen_stats.merge(record.screen)
            self.runs_requested += record.requested
            self.runs_effective += record.effective
        self.point_log.extend(records)
        return [YieldEstimate(r.successes, r.effective) for r in records]

    def close(self) -> None:
        """Release the worker pool the engine built (idempotent).

        An explicit ``executor`` is left alone: it is the caller's to
        close.  A :meth:`run_points` after ``close`` starts a new pool.
        """
        if self._own_executor is not None:
            self._own_executor.close()
            self._own_executor = None

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- conveniences ----------------------------------------------------------
    def survival_estimates(
        self,
        chip: Biochip,
        points: Sequence[Tuple[float, int]],
        runs: int,
        needed: Optional[Iterable[Hashable]] = None,
        stop: Optional[StopRule] = None,
        criterion: Optional[object] = None,
    ) -> List[YieldEstimate]:
        """Survival-regime estimates for ``(p, seed)`` pairs on one chip.

        ``criterion`` optionally replaces the matching success predicate
        with a functional one (see :mod:`repro.functional`); ``None``
        keeps the historical matching streams byte for byte.
        """
        needed_t = tuple(sorted(set(needed))) if needed is not None else None
        tasks = [
            EnginePoint(
                chip,
                PointSpec("survival", p, runs, seed, criterion=criterion),
                needed_t,
                stop,
            )
            for p, seed in points
        ]
        return self.run_points(tasks)
