"""Pure point scheduling: keys, cache, chunking, fold order, speculation.

This module is the scheduling half of the engine split.  It owns
everything that determines *what* a sweep computes and in *what order*
results fold together — chip payload canonicalization and digests,
point-cache key derivation and the on-disk :class:`PointCache`, per-point
fold plans (one fold for a flat point, the shard plan for a sharded or
adaptive one), compute-unit grouping, and the one strict in-order fold
loop with stop-rule speculation for adaptive points.  It owns nothing about
*where* compute units run: that is the
:class:`~repro.yieldsim.executors.Executor` passed into
:meth:`PointScheduler.run`.

The decomposition is what makes the engine's bit-identity contract
auditable: every number is produced by a fold whose order depends only on
the task list, and the executor can only reorder *completion*, never
*folding*.  Serial, process-pool and inline execution are therefore
bit-identical by construction, and the scheduler is the single place cache
keys are derived — which is also what lets the serving layer
(:mod:`repro.serve`) coalesce identical in-flight requests by the very key
the cache would use.

:class:`~repro.yieldsim.engine.SweepEngine` remains the user-facing
facade: it wires a scheduler to an executor and keeps the run accounting
(budget log, screen stats, estimates).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.chip.biochip import Biochip
from repro.chip.cell import Cell, CellRole
from repro.errors import SimulationError
from repro.geometry.hex import Hex
from repro.geometry.square import Square
from repro.obs import profile as _profile
from repro.obs.counters import CriterionStats, ScreenStats
from repro.obs.events import get_logger, log_event
from repro.yieldsim.cachestore import (
    CacheStore,
    LocalStore,
    TieredCache,
    decode_entry,
    encode_entry,
)
from repro.yieldsim.executors import Executor
from repro.yieldsim.kernel import (
    PointSpec,
    RepairStructure,
    model_successes,
    point_entropy,
    point_model,
    shard_plan,
    shard_seed,
)
from repro.obs.trace import Tracer
from repro.yieldsim.resilience import (
    ResilienceStats,
    RetryPolicy,
    UnitRunner,
)
from repro.yieldsim.stats import StopRule

__all__ = [
    "ENGINE_VERSION",
    "EnginePoint",
    "PointCache",
    "PointOutcome",
    "PointScheduler",
    "chip_identity",
    "chip_payload",
    "payload_digest",
]

_log = get_logger("scheduler")

#: Bump when the kernel/sampling semantics change, to invalidate caches.
ENGINE_VERSION = 1

#: Maximum flat points per compute unit: small enough to load-balance a
#: grid across workers, large enough to amortize per-unit pickling.
_CHUNK_POINTS = 4

#: Callback invoked after each in-order fold of a batched point:
#: ``on_fold(task_index, successes, trials)`` with cumulative values.
FoldHook = Callable[[int, int, int], None]


# -- chip payloads ------------------------------------------------------------

def chip_payload(
    chip: Biochip, needed: Optional[Iterable[Hashable]] = None
) -> Dict[str, object]:
    """A minimal, canonical, picklable description of a simulation target.

    Only what the repairability question depends on is included — cell
    coordinates, roles and the needed set.  Health, labels and the chip
    name are deliberately excluded so cosmetic differences cannot split
    the cache.
    """
    kind = None
    cells: List[Tuple[int, int, int]] = []
    for cell in chip:
        coord = cell.coord
        if isinstance(coord, Hex):
            k, a, b = "hex", coord.q, coord.r
        elif isinstance(coord, Square):
            k, a, b = "square", coord.x, coord.y
        else:
            raise SimulationError(
                f"cannot serialize coordinate of type {type(coord).__name__}"
            )
        if kind is None:
            kind = k
        elif kind != k:
            raise SimulationError("chip mixes coordinate systems")
        cells.append((a, b, 1 if cell.is_spare else 0))
    payload: Dict[str, object] = {"coords": kind, "cells": cells}
    if needed is not None:
        needed_pairs = []
        for coord in sorted(set(needed)):
            if isinstance(coord, (Hex, Square)):
                needed_pairs.append(
                    (coord.q, coord.r) if isinstance(coord, Hex) else (coord.x, coord.y)
                )
            else:
                raise SimulationError(
                    f"cannot serialize needed coordinate {coord!r}"
                )
        payload["needed"] = needed_pairs
    return payload


def payload_digest(payload: Dict[str, object]) -> str:
    """Stable SHA-256 digest of a chip payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


#: A chip's canonical payload and its :func:`payload_digest`.
ChipIdentity = Tuple[Dict[str, object], str]

#: Per chip, ``needed`` (as a frozenset, or None) -> its identity.  Weak
#: keys so chips die normally; the values hold plain data only, never
#: the chip, or a key could not die.
_IDENTITIES: "weakref.WeakKeyDictionary[Biochip, Dict[object, ChipIdentity]]" = (
    weakref.WeakKeyDictionary()
)


def chip_identity(
    chip: Biochip, needed: Optional[Iterable[Hashable]] = None
) -> ChipIdentity:
    """The memoized ``(chip_payload(chip, needed), payload digest)``.

    Computed once per chip object and needed set, like
    :func:`~repro.yieldsim.defects.geometry_for`: a chip's coordinates
    and roles never change after construction, and health and labels do
    not enter the payload.  The payload is shared by every caller, so it
    is read-only.  Two threads filling the memo for one chip at once
    compute equal values, and ``setdefault`` hands both the one stored.
    """
    marker = None if needed is None else frozenset(needed)
    entries = _IDENTITIES.get(chip)
    if entries is None:
        entries = _IDENTITIES.setdefault(chip, {})
    identity = entries.get(marker)
    if identity is None:
        payload = chip_payload(chip, marker)
        identity = entries.setdefault(marker, (payload, payload_digest(payload)))
    return identity


def structure_from_payload(payload: Dict[str, object]) -> RepairStructure:
    """Rebuild the chip from its payload and derive the repair structure."""
    kind = payload["coords"]
    make = Hex if kind == "hex" else Square
    cells = [
        Cell(make(a, b), CellRole.SPARE if spare else CellRole.PRIMARY)
        for a, b, spare in payload["cells"]
    ]
    chip = Biochip(cells, name="engine-target")
    needed = payload.get("needed")
    if needed is not None:
        needed = [make(a, b) for a, b in needed]
    return RepairStructure(chip, needed=needed)


# -- worker-side execution ----------------------------------------------------

#: Per-process memo of chip digest -> RepairStructure, so a sweep that
#: shards many points of one chip builds the structure once per worker.
_STRUCTURES: Dict[str, RepairStructure] = {}


def _structure_for(digest: str, payload: Dict[str, object]) -> RepairStructure:
    struct = _STRUCTURES.get(digest)
    if struct is None:
        struct = structure_from_payload(payload)
        _STRUCTURES[digest] = struct
    return struct


#: What a compute unit reports per point beside its success count: the
#: matching-screen counters, the criterion-funnel counters (``None`` for
#: default matching points) and the point's phase timings (``wall_s``,
#: ``cpu_s`` and the sampling loop's ``funnel_*`` phases).  Counters are
#: results-adjacent and executor-independent; timings are telemetry only.
PointTelemetry = Tuple[ScreenStats, Optional[CriterionStats], Dict[str, float]]


def compute_unit(
    digest: str,
    payload: Dict[str, object],
    items: Sequence[Tuple[PointSpec, int, object]],
    dtype_name: str,
) -> Tuple[List[int], List[PointTelemetry]]:
    """Compute one unit of folds (the executor's unit function).

    Each item is one fold ``(spec, runs, seed)``: a flat point's whole
    budget on its own ``spec.seed`` stream, or fold ``k`` of a batched
    point on :func:`~repro.yieldsim.kernel.shard_seed` ``(entropy, k)``.
    Returns the per-item success counts and, aligned with them, each
    item's :data:`PointTelemetry`.  Every item draws from its own seed,
    so a result never depends on which other items share its unit or
    which worker computes it.  Timing is taken around each item alone,
    so summing over points never counts a second twice.
    """
    struct = _structure_for(digest, payload)
    dtype = np.dtype(dtype_name).type
    successes: List[int] = []
    telemetry: List[PointTelemetry] = []
    for spec, runs, seed in items:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with _profile.capture() as timings:
            got, screen, funnel = model_successes(
                struct, point_model(spec), runs, seed, dtype=dtype,
                criterion=spec.criterion,
            )
        timings["wall_s"] = time.perf_counter() - wall0
        timings["cpu_s"] = time.process_time() - cpu0
        successes.append(got)
        telemetry.append((screen, funnel, timings))
    return successes, telemetry


# -- scheduling inputs --------------------------------------------------------

@dataclass(frozen=True)
class EnginePoint:
    """One sweep point: a chip, an optional needed set, and a PointSpec.

    ``stop`` attaches an adaptive sequential budget: the point runs in
    batches of ``stop.batch_runs`` and halts once its Wilson interval is
    as narrow as the rule demands, with ``spec.runs`` as the flat ceiling.
    """

    chip: Biochip
    spec: PointSpec
    needed: Optional[Tuple[Hashable, ...]] = None
    stop: Optional[StopRule] = None


# -- the on-disk point cache --------------------------------------------------

class PointCache:
    """Content-addressed on-disk store of computed points.

    One small JSON file per point, keyed by a SHA-256 digest of
    (chip payload digest, regime, parameter, runs, seed, dtype, engine
    version — plus the defect-model digest for explicit-model points, and
    the batch size and stop-rule digest for batched points).  The key is
    the request/response identity of a point: the serving layer coalesces
    concurrent identical requests by exactly this string.

    ``dir=None`` disables storage but keeps key derivation available;
    hits/misses counters then stay zero, matching the engine's historical
    accounting (misses are only counted when a cache is actually on).

    Entry storage is delegated to a
    :class:`~repro.yieldsim.cachestore.CacheStore`: by default a
    :class:`~repro.yieldsim.cachestore.LocalStore` over ``cache_dir``
    (byte-identical to the historical layout), but the engine can inject
    a :class:`~repro.yieldsim.cachestore.TieredCache` to read through to
    a shared remote store.  Fold checkpoints are deliberately **not**
    routed through that store: they are mid-flight private state of one
    run, meaningless to a fleet, and are journaled through a second
    :class:`~repro.yieldsim.cachestore.LocalStore` over ``dir`` with the
    ``.ckpt.json`` suffix.

    Every entry carries a content digest, verified on load: a truncated,
    bit-rotted or hand-edited file is *quarantined* (renamed ``*.corrupt``,
    counted in ``stats.quarantined``) and treated as a miss — the read
    path never raises on bad data.  The same entry format backs the fold
    **checkpoints** that make adaptive points preemption-proof:
    :meth:`store_checkpoint` journals a point's cumulative fold state
    after every in-order fold, and :meth:`load_checkpoint` lets the next
    run resume at fold *k* with state — successes, trials, screen stats,
    criterion funnel — identical to what the uninterrupted run had there,
    so the final artifact is byte-identical.
    """

    def __init__(self, cache_dir: Optional[str], dtype_name: str,
                 version: int = ENGINE_VERSION,
                 stats: Optional[ResilienceStats] = None,
                 store: Optional["CacheStore"] = None):
        if cache_dir is not None and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            raise SimulationError(
                f"cache path {cache_dir!r} exists and is not a directory"
            )
        self.dir = cache_dir
        self.dtype_name = dtype_name
        self.version = version
        self.hits = 0
        self.misses = 0
        self.stats = stats if stats is not None else ResilienceStats()
        if store is not None:
            self.backend: Optional[CacheStore] = store
        elif cache_dir is not None:
            self.backend = LocalStore(cache_dir, stats=self.stats)
        else:
            self.backend = None
        self.checkpoints: Optional[LocalStore] = (
            LocalStore(cache_dir, stats=self.stats, suffix=".ckpt.json")
            if cache_dir is not None
            else None
        )

    # -- keys -----------------------------------------------------------------
    def key(
        self,
        digest: str,
        spec: PointSpec,
        stop: Optional[StopRule] = None,
        batch: Optional[int] = None,
    ) -> str:
        ident: Dict[str, object] = {
            "chip": digest,
            "kind": spec.kind,
            "param": spec.param,
            "runs": spec.runs,
            "seed": spec.seed,
            "dtype": self.dtype_name,
            "version": self.version,
        }
        if spec.model is not None:
            # The model's content digest keys the distribution: two models
            # at equal severity (or a model point and a legacy point at
            # the same p) can never collide in the cache.
            ident["defect_model"] = spec.model.digest()
        if spec.criterion is not None:
            # Same pattern for the success predicate: criterion points key
            # by content digest, and default matching points omit the field
            # entirely, so historical cache entries stay valid.
            ident["criterion"] = spec.criterion.digest()
        if batch is not None:
            # Batched points live under a distinct key family: the batch
            # size defines the RNG stream and the stop-rule digest defines
            # the effective budget, so a flat-budget entry is never served
            # to an adaptive request (or vice versa).
            ident["mode"] = "batched"
            ident["batch"] = batch
            ident["stop"] = stop.digest() if stop is not None else None
        blob = json.dumps(ident, sort_keys=True)
        return hashlib.sha256(blob.encode("ascii")).hexdigest()

    # -- storage --------------------------------------------------------------
    def load(
        self, key: str, spec: PointSpec, batched: bool = False
    ) -> Optional[Tuple[int, int]]:
        """Cached ``(successes, effective trials)`` for a point, if valid.

        A non-hit counts as a miss (the point will have to be computed);
        with no cache directory nothing is counted at all.
        """
        if self.backend is None:
            return None
        entry = self._read(self.backend, key, spec, batched)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def peek_local(
        self, key: str, spec: PointSpec, batched: bool = False
    ) -> Optional[Tuple[int, int]]:
        """What :meth:`load` would find in the local tier, counting nothing.

        Reads a :class:`~repro.yieldsim.cachestore.TieredCache`'s local
        tier only, so no remote store is ever contacted.  A corrupt local
        file quarantines exactly as a load would, and the load that
        follows then counts its miss.
        """
        if self.backend is None:
            return None
        store = self.backend
        if isinstance(store, TieredCache):
            store = store.local
        return self._read(store, key, spec, batched)

    def _read(
        self, store: "CacheStore", key: str, spec: PointSpec, batched: bool
    ) -> Optional[Tuple[int, int]]:
        if batched and spec.seed is None:
            # A seedless batched point has fresh entropy every time; a
            # cache entry for it would be a false hit.
            return None
        blob = store.get(key)
        if blob is None:
            return None
        # The store verified transport/storage integrity; decode_entry
        # re-checks the embedded digest (the safety net for tiers that
        # store arbitrary bytes) before semantic validation below.
        data = decode_entry(blob)
        if data is None:
            return None
        try:
            successes = data["successes"]
            trials = data["trials"]
            if batched:
                if data["requested"] != spec.runs or not 0 <= successes <= trials <= spec.runs:
                    return None
            elif trials != spec.runs or not 0 <= successes <= spec.runs:
                return None
            return int(successes), int(trials)
        except (ValueError, KeyError, TypeError):
            return None

    def store(
        self,
        key: str,
        spec: PointSpec,
        successes: int,
        trials: int,
        batched: bool = False,
        stop: Optional[StopRule] = None,
    ) -> None:
        if self.backend is None or (batched and spec.seed is None):
            return
        entry: Dict[str, object] = {
            "successes": successes,
            "trials": trials,
            "kind": spec.kind,
            "param": spec.param,
            "seed": spec.seed,
            "version": self.version,
        }
        if batched:
            entry["requested"] = spec.runs
            entry["stop"] = stop.digest() if stop is not None else None
        self.backend.put(key, encode_entry(entry))

    # -- fold checkpoints ------------------------------------------------------
    def load_checkpoint(
        self, key: str, spec: PointSpec
    ) -> Optional[Tuple[int, "PointOutcome"]]:
        """The journaled fold state of a batched point, if present and valid.

        Returns ``(folds, outcome)`` — the number of folds already done and
        the point's cumulative successes, trials and counters at that
        fold; the scheduler validates it against the point's shard plan
        before trusting it.  Corrupt checkpoints quarantine like any cache
        file; a stale or inconsistent one (including a journal whose
        counters are in another layout) reads as absent, so the worst
        outcome of any checkpoint is recomputing from fold zero.
        """
        if self.checkpoints is None or spec.seed is None:
            return None
        blob = self.checkpoints.get(key)
        data = decode_entry(blob) if blob is not None else None
        if data is None:
            return None
        try:
            folds = int(data["folds"])  # type: ignore[arg-type]
            outcome = PointOutcome(
                successes=int(data["successes"]),  # type: ignore[arg-type]
                trials=int(data["trials"]),  # type: ignore[arg-type]
                screen=ScreenStats.from_dict(data["stats"]),  # type: ignore[arg-type]
                funnel=(
                    CriterionStats.from_dict(data["crit"])  # type: ignore[arg-type]
                    if data["crit"] is not None
                    else None
                ),
            )
        except (ValueError, KeyError, TypeError):
            return None
        if data.get("requested") != spec.runs or folds < 1:
            return None
        if (outcome.funnel is None) != (spec.criterion is None):
            return None
        if not 0 <= outcome.successes <= outcome.trials <= spec.runs:
            return None
        return folds, outcome

    def store_checkpoint(
        self, key: str, spec: PointSpec, folds: int, outcome: "PointOutcome"
    ) -> None:
        """Journal a batched point's cumulative state after fold ``folds``."""
        if self.checkpoints is None or spec.seed is None:
            return
        self.checkpoints.put(key, encode_entry({
            "requested": spec.runs,
            "folds": folds,
            "successes": outcome.successes,
            "trials": outcome.trials,
            "stats": outcome.screen.as_dict(),
            "crit": outcome.funnel.as_dict() if outcome.funnel is not None else None,
            "version": self.version,
        }))

    def clear_checkpoint(self, key: str) -> None:
        """Drop a point's checkpoint (it completed; the final entry rules)."""
        if self.checkpoints is not None:
            self.checkpoints.delete(key)


# -- result validation --------------------------------------------------------
#
# Validators run parent-side in UnitRunner.collect(): the scheduler knows
# each unit's payload shape and bounds, so a corrupted payload (bit-rot,
# a broken transport, an injected fault) is rejected and the unit retried
# instead of folding garbage into the estimates.

def _is_count(value: object, cap: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool
    ) and 0 <= int(value) <= cap


def _is_telemetry(value: object) -> bool:
    screen, funnel, timings = value  # type: ignore[misc]
    return (
        isinstance(screen, ScreenStats)
        and (funnel is None or isinstance(funnel, CriterionStats))
        and isinstance(timings, dict)
    )


def _unit_validator(runs: Sequence[int]) -> Callable[[object], bool]:
    """Accept only a well-formed ``compute_unit`` payload for ``runs``."""
    def validate(value: object) -> bool:
        successes, telemetry = value  # type: ignore[misc]
        if len(successes) != len(runs) or len(telemetry) != len(runs):
            return False
        if not all(_is_count(got, cap) for got, cap in zip(successes, runs)):
            return False
        return all(_is_telemetry(tele) for tele in telemetry)
    return validate


# -- per-point outcomes -------------------------------------------------------

@dataclass
class PointOutcome:
    """Everything one task produced: its numbers and its telemetry.

    ``successes``/``trials`` are the result (``trials`` is the effective
    budget).  ``screen`` and ``funnel`` count where the point's folded
    runs were decided — by the matching screen, and by the criterion
    funnel for criterion points (``None`` otherwise).  Only in-order folds
    count, so both are executor-independent like the numbers.  Cache hits
    carry zero counters, ``funnel=None`` and ``timings=None``: the cache
    stores results, not telemetry.

    ``incidents`` counts the recovery work the point's units needed
    (``None`` when there was none; a unit's incidents attribute to every
    point it carried) and ``timings`` the point's own phase seconds —
    worker-side ``wall_s``/``cpu_s`` plus funnel phases, parent-side
    ``cache_wall_s``/``fold_wall_s``.  Both are telemetry only.
    """

    successes: int = 0
    trials: int = 0
    screen: ScreenStats = field(default_factory=ScreenStats)
    funnel: Optional[CriterionStats] = None
    incidents: Optional[Dict[str, int]] = None
    timings: Optional[Dict[str, float]] = None

    def absorb(self, got: int, trials: int, telemetry: PointTelemetry) -> None:
        """Fold one computed unit's share of this point into the outcome."""
        screen, funnel, timings = telemetry
        self.successes += got
        self.trials += trials
        self.screen.merge(screen)
        if funnel is not None:
            if self.funnel is None:
                self.funnel = CriterionStats()
            self.funnel.merge(funnel)
        _profile.merge_into(self.timings, timings)


# -- the scheduler ------------------------------------------------------------

class PointScheduler:
    """Turns a task list into ordered, cached, executor-agnostic results.

    The scheduler is pure in the sense that its outputs — one
    :class:`PointOutcome` per task — are a function of the task list
    alone (telemetry aside).  The executor passed to :meth:`run` decides
    only where compute units execute and how far the scheduler may
    speculate past an adaptive stop point; folds always happen in batch
    order, so every backend produces identical numbers, identical
    effective budgets and identical counters.

    ``retry`` applies the resilience layer: failed, hung and corrupted
    units are re-executed with deterministic backoff, and a broken
    process pool is rebuilt with its in-flight units resubmitted — all
    without changing a single number, because every unit is a pure
    function of its arguments.  ``checkpoint=True`` journals each batched
    point's fold state to the cache directory so a preempted adaptive
    point resumes at the fold it reached.  ``stats`` shares one
    :class:`~repro.yieldsim.resilience.ResilienceStats` with the cache
    (default) so the engine sees every incident in one place.
    """

    def __init__(
        self,
        cache: PointCache,
        dtype: type = np.float32,
        shard_runs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: bool = False,
        stats: Optional[ResilienceStats] = None,
        tracer: Optional[Tracer] = None,
    ):
        if shard_runs is not None and shard_runs < 1:
            raise SimulationError(f"shard_runs must be >= 1, got {shard_runs}")
        self.cache = cache
        self.dtype = dtype
        self.shard_runs = shard_runs
        self.retry = retry
        self.checkpoint = checkpoint
        self.stats = stats if stats is not None else cache.stats
        #: Optional span tracer; ``None`` keeps every hot path untouched.
        #: Mutable so a server can arm tracing per-request on one engine.
        self.tracer = tracer

    # -- key derivation --------------------------------------------------------
    def task_batch(self, task: EnginePoint) -> Optional[int]:
        """Batch size for batched (sharded/adaptive) execution, else None."""
        if task.stop is not None:
            return task.stop.batch_runs
        if self.shard_runs is not None and task.spec.runs > self.shard_runs:
            return self.shard_runs
        return None

    def key_for(self, task: EnginePoint) -> str:
        """The point-cache key (request identity) of one task."""
        _, digest = chip_identity(task.chip, task.needed)
        return self.cache.key(
            digest, task.spec,
            stop=task.stop, batch=self.task_batch(task),
        )

    # -- execution -------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[EnginePoint],
        executor: Executor,
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        on_fold: Optional[FoldHook] = None,
    ) -> List[PointOutcome]:
        """One :class:`PointOutcome` for every task, in order.

        Every point that misses the cache runs a fold plan: a flat point
        is one fold of its whole budget on its own ``spec.seed`` stream;
        a point with a stop rule or beyond ``shard_runs`` folds its shard
        plan, fold ``k`` on ``shard_seed(entropy, k)``.  Flat points of
        one chip share compute units (up to ``_CHUNK_POINTS`` a unit);
        every batched fold is a unit of its own.  The submit schedule
        interleaves the folds of *different* points, so an adaptive sweep
        keeps every worker busy, but each point folds strictly in plan
        order with its stop rule checked after each fold.  Folds that
        complete beyond a stop point are discarded, so successes,
        effective budgets and counters are identical whatever the
        executor; with a capacity-1 immediate executor nothing is
        speculated at all.  ``on_fold`` (if given) observes each in-order
        fold — cumulative successes/trials — which is what the serving
        layer streams as NDJSON progress.
        """
        n = len(tasks)
        outcomes: List[Optional[PointOutcome]] = [None] * n
        tracer = self.tracer
        run_t0 = tracer.now_us() if tracer is not None else 0.0
        #: task index -> trace-relative start of the point's lifecycle.
        point_start: Dict[int, float] = {}

        def trace_point(i: int, hit: bool) -> None:
            if tracer is None:
                return
            out = outcomes[i]
            tracer.complete(
                "point", point_start.get(i, 0.0),
                tracer.now_us() - point_start.get(i, 0.0), cat="point",
                index=i, kind=tasks[i].spec.kind, param=tasks[i].spec.param,
                requested=tasks[i].spec.runs, effective=out.trials,
                successes=out.successes, hit=hit,
            )

        payload_by_digest: Dict[str, Dict[str, object]] = {}
        digests: List[str] = []
        for task in tasks:
            payload, digest = chip_identity(task.chip, task.needed)
            payload_by_digest[digest] = payload
            digests.append(digest)

        # Cache pass.
        batch_of = [self.task_batch(task) for task in tasks]
        keys = [
            self.cache.key(digests[i], task.spec, stop=task.stop, batch=batch_of[i])
            for i, task in enumerate(tasks)
        ]
        pending: List[int] = []
        done = 0
        for i, task in enumerate(tasks):
            task.spec.validate(len(task.chip))
            if tracer is not None:
                point_start[i] = tracer.now_us()
            load0 = time.perf_counter()
            cached = self.cache.load(keys[i], task.spec, batched=batch_of[i] is not None)
            load_s = time.perf_counter() - load0
            if tracer is not None:
                tracer.complete(
                    "cache.get", point_start[i], load_s * 1e6, cat="cache",
                    key=keys[i][:16], hit=cached is not None,
                )
            if cached is not None:
                outcomes[i] = PointOutcome(*cached)
                done += 1
                trace_point(i, hit=True)
            else:
                outcomes[i] = PointOutcome(timings={"cache_wall_s": load_s})
                pending.append(i)
        hits = done
        if done and progress is not None:
            progress(done, n)

        # One fold plan (and seed source) per pending point.
        plans: Dict[int, Tuple[int, ...]] = {}
        entropies: Dict[int, int] = {}
        for i in pending:
            task = tasks[i]
            if batch_of[i] is None:
                plans[i] = (task.spec.runs,)
            else:
                ceiling = task.stop.cap(task.spec.runs) if task.stop else task.spec.runs
                plans[i] = shard_plan(ceiling, batch_of[i])
                entropies[i] = point_entropy(task.spec.seed)

        def fold_item(i: int, k: int) -> Tuple[PointSpec, int, object]:
            spec = tasks[i].spec
            seed = shard_seed(entropies[i], k) if i in entropies else spec.seed
            return spec, plans[i][k], seed

        # A point is live until it stops or folds its whole plan.
        next_fold = dict.fromkeys(pending, 0)
        complete: set = set()

        def settle(i: int) -> bool:
            """Finish point ``i`` if its plan is spent or its rule fires."""
            nonlocal done
            out = outcomes[i]
            rule = tasks[i].stop
            if next_fold[i] < len(plans[i]) and (
                rule is None or not rule.should_stop(out.successes, out.trials)
            ):
                return False
            complete.add(i)
            batched = i in entropies
            self._store_traced(
                keys[i], tasks[i].spec, out.successes, out.trials,
                batched=batched, stop=tasks[i].stop,
            )
            if batched and self.checkpoint:
                self.cache.clear_checkpoint(keys[i])
            trace_point(i, hit=False)
            done += 1
            if progress is not None:
                progress(done, n)
            return True

        if self.checkpoint:
            for i in entropies:
                restored = self._restore(i, keys[i], tasks[i].spec, plans[i])
                if restored is None:
                    continue
                next_fold[i], state = restored
                state.timings = outcomes[i].timings
                outcomes[i] = state
                if on_fold is not None:
                    on_fold(i, state.successes, state.trials)
                settle(i)

        # Compute units, in the order fault-schedule ordinals rely on:
        # flat points grouped per chip up to _CHUNK_POINTS, then one unit
        # per remaining batched fold, point-major.  The grouping depends
        # only on the task list, never on the executor.
        units: Deque[Tuple[str, List[Tuple[int, int]]]] = deque()
        for i in pending:
            if i in entropies:
                continue
            if not units or units[-1][0] != digests[i] or len(units[-1][1]) >= _CHUNK_POINTS:
                units.append((digests[i], []))
            units[-1][1].append((i, 0))
        for i in entropies:
            if i not in complete:
                units.extend(
                    (digests[i], [(i, k)]) for k in range(next_fold[i], len(plans[i]))
                )

        dtype_name = np.dtype(self.dtype).name
        executor.start(len(units))
        runner = UnitRunner(executor, self.retry, self.stats, tracer=tracer)
        ready: Dict[Tuple[int, int], Tuple[int, PointTelemetry]] = {}
        try:
            while len(complete) < len(pending):
                while units and runner.free_slots > 0:
                    digest, folds = units.popleft()
                    if folds[0][0] in complete:
                        continue  # a stopped batched point's tail
                    runner.submit(
                        tuple(folds), compute_unit,
                        (digest, payload_by_digest[digest],
                         [fold_item(i, k) for i, k in folds], dtype_name),
                        validator=_unit_validator([plans[i][k] for i, k in folds]),
                    )
                if not len(runner):
                    break  # nothing in flight, nothing left to fold (defensive)
                collected: List[int] = []
                for token, (successes, telemetry) in runner.collect():
                    for (i, k), got, tele in zip(token, successes, telemetry):
                        ready[i, k] = got, tele
                        collected.append(i)
                for i in collected:
                    while i not in complete and (i, next_fold[i]) in ready:
                        fold0 = time.perf_counter()
                        out = outcomes[i]
                        # Only in-order folds count: speculative folds of
                        # stopped points are discarded below, so counters
                        # stay executor-independent too.
                        got, telemetry = ready.pop((i, next_fold[i]))
                        out.absorb(got, plans[i][next_fold[i]], telemetry)
                        next_fold[i] += 1
                        out.timings["fold_wall_s"] = out.timings.get(
                            "fold_wall_s", 0.0
                        ) + (time.perf_counter() - fold0)
                        if tracer is not None:
                            tracer.instant(
                                "fold", cat="point", index=i, fold=next_fold[i],
                                successes=out.successes, trials=out.trials,
                            )
                        if on_fold is not None:
                            on_fold(i, out.successes, out.trials)
                        if not settle(i) and self.checkpoint:
                            self.cache.store_checkpoint(
                                keys[i], tasks[i].spec, next_fold[i], out
                            )
                # Drop speculative results (and cancel queued folds) of
                # points that have since completed.
                for fold in [f for f in ready if f[0] in complete]:
                    del ready[fold]
                runner.cancel_where(lambda token: token[0][0] in complete)
        finally:
            executor.shutdown()

        for token, counts in runner.incidents.items():
            for i, _ in token:
                bucket = outcomes[i].incidents = outcomes[i].incidents or {}
                for kind, count in counts.items():
                    bucket[kind] = bucket.get(kind, 0) + count

        for out in outcomes:
            if out.timings is not None:
                out.timings = {
                    k: round(v, 6) for k, v in sorted(out.timings.items())
                }

        if tracer is not None:
            tracer.complete(
                "scheduler.run", run_t0, tracer.now_us() - run_t0,
                cat="engine", tasks=n, hits=hits,
            )

        return outcomes  # type: ignore[return-value]

    def _store_traced(
        self,
        key: str,
        spec: PointSpec,
        got: int,
        trials: int,
        *,
        batched: bool = False,
        stop: Optional[StopRule] = None,
    ) -> None:
        """``cache.store`` wrapped in a ``cache.put`` span when tracing."""
        if self.tracer is None:
            self.cache.store(key, spec, got, trials, batched=batched, stop=stop)
            return
        t0 = self.tracer.now_us()
        self.cache.store(key, spec, got, trials, batched=batched, stop=stop)
        self.tracer.complete(
            "cache.put", t0, self.tracer.now_us() - t0, cat="cache",
            key=key[:16],
        )

    def _restore(
        self, i: int, key: str, spec: PointSpec, plan: Tuple[int, ...]
    ) -> Optional[Tuple[int, PointOutcome]]:
        """The journaled ``(folds, outcome)`` of batched point ``i``, if any.

        With checkpointing on, each in-order fold of a seeded batched
        point journals its cumulative outcome (successes, trials, screen
        and funnel counters); a valid journal lets the point skip the
        folds a previous, interrupted run already did.  Because the
        journal holds exactly what the fold loop would have accumulated,
        a resumed point is indistinguishable from an uninterrupted one.
        A journal from another plan shape reads as absent (recompute).
        """
        restored = self.cache.load_checkpoint(key, spec)
        if restored is None:
            return None
        folds, state = restored
        if folds > len(plan) or state.trials != sum(plan[:folds]):
            return None
        self.stats.checkpoint_resumes += 1
        self.stats.folds_resumed += folds
        if self.tracer is not None:
            self.tracer.instant(
                "checkpoint_resume", cat="incident", index=i,
                folds=folds, trials=state.trials,
            )
        log_event(
            _log, "checkpoint_resume", point=i, folds=folds,
            successes=state.successes, trials=state.trials,
        )
        return folds, state
