"""Vectorized repairability screening kernel for Monte-Carlo yield runs.

The repairability question behind every Monte-Carlo run — "can each faulty
needed primary be matched to a distinct surviving adjacent spare?" — is a
bipartite matching feasibility problem.  Solving it with per-run Python
matching (``YieldSimulator._repairable``) is exact but slow.  This module
answers the same question for a whole batch of fault maps at once, using a
funnel of *exact* vectorized reductions; only the runs the screen cannot
decide fall through to the integer Kuhn matching.

The funnel, in order:

1. **zero-fault**: runs with no faulty needed primary are good.
2. **packed peel**, iterated to a fixed point over the whole batch with
   runs packed eight per byte (:func:`_pack_runs`).  The state is three
   sets of bit rows: ``F``, the unmatched faulty needed primaries;
   ``A``, the available candidate spares; and the live runs.  Each
   iteration applies, from one snapshot of that state:

   * *dead ends* — a faulty primary left with no available spare makes
     the run bad (``bad_dead_end``).
   * *forced moves* — a faulty primary with exactly one available spare
     must take it.  Two primaries forced onto the same spare make the
     run bad (``bad_forced_conflict``).
   * *private spares* — an available spare demanded by exactly one
     unmatched faulty primary can be greedily committed to it.

   Each forced spare leaves ``A`` and each committed primary leaves
   ``F``; a run left with no unmatched faulty primary is good
   (``good_peeled``).  Both commits are feasibility-preserving in *both*
   directions (the standard exchange argument: a demand-1 spare is used
   by no other faulty primary in any matching, and a degree-1 primary
   has no other choice), so peeling never changes the verdict — it only
   shrinks the residual problem, usually to nothing.  A private spare
   stays in ``A``, and so do the other private spares of the primary
   that took one: each was demanded by that primary alone, and ``F``
   only shrinks, so no later degree, Hall union or Kuhn input reads it.
   A run whose iteration commits nothing can never progress and is
   frozen: every update is masked by the live rows, so its bits stop
   changing.  Runs still live at :data:`_MAX_PEEL_ITERATIONS` are frozen
   too.  On designs where every primary has at most one spare
   (DTMB(1,6), the Figure 7 design) every faulty primary is forced, so
   the first iteration decides every run.
3. **Hall bounds** on the frozen runs, unpacked into dense rows: if the
   union of available candidate spares is smaller than the number of
   unmatched faulty primaries the run is bad; if every unmatched
   primary's available degree is at least that number, Hall's condition
   holds and the run is good.
4. **Kuhn residue**: whatever survives the screen (typically well under
   a percent of runs at the paper's survival probabilities) is decided
   by exact augmenting-path matching on the *reduced* problem.

:class:`RepairStructure` precomputes the padded primary->spare adjacency
arrays the screen needs; :func:`classify_repairable` runs the funnel and
returns a per-run verdict plus :class:`ScreenStats` counters so callers
(and tests) can see where each run was decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from repro.chip.biochip import Biochip
from repro.errors import SimulationError
from repro.faults.injection import RngLike, make_rng
from repro.obs import profile as _profile
from repro.obs.counters import CriterionStats, ScreenStats
from repro.yieldsim.defects import (
    DefectGeometry,
    DefectModel,
    FixedCount,
    IIDBernoulli,
    fixed_fault_alive,
)
from repro.yieldsim.stats import split_batches

__all__ = [
    "GOOD",
    "BAD",
    "UNDECIDED",
    "RepairStructure",
    "ScreenStats",
    "PointSpec",
    "classify_repairable",
    "demanded_spares",
    "kuhn_repairable",
    "survival_batch_sizes",
    "fixed_fault_alive",
    "model_successes",
    "point_model",
    "point_entropy",
    "shard_seed",
    "shard_plan",
]

#: Per-run verdict codes returned by :func:`classify_repairable`.
GOOD: int = 1
BAD: int = 0
UNDECIDED: int = -1

#: Peeling iteration cap.  Each committing iteration strictly shrinks the
#: problem, so this is a safety valve, not a correctness requirement — any
#: run still undecided at the cap is handed to the exact matcher.
_MAX_PEEL_ITERATIONS = 64

#: Memory bound (bytes of survival matrix) replicated exactly from the
#: original ``YieldSimulator`` batching so batch boundaries — and therefore
#: the RNG stream — are bit-identical to the pre-engine implementation.
_BATCH_BYTES = 8_000_000

#: Rows per *classification* sub-batch are chosen so the screen's working
#: set (survival rows, bit rows, gathers) stays inside a ~2 MB L2 cache.
#: This only slices the already-drawn survival matrix — it never changes
#: the RNG stream, and verdicts are per-run, so results are unaffected.
_CLASSIFY_BYTES = 800_000


class RepairStructure:
    """Precomputed primary->adjacent-spare structure of one chip.

    Shared by the vectorized screen and the brute-force reference
    simulator, so both answer the repairability question on exactly the
    same bipartite graph.

    Parameters
    ----------
    chip:
        The array under evaluation (never mutated; health is ignored).
    needed:
        Primary coordinates that must work (default: every primary).
    """

    def __init__(self, chip: Biochip, needed: Optional[Iterable[Hashable]] = None):
        coords = chip.coords
        index: Dict[Hashable, int] = {c: i for i, c in enumerate(coords)}
        self.n_cells = len(coords)
        #: retained for lazy defect-geometry derivation (spatial models)
        self.chip = chip
        self._geometry: Optional[DefectGeometry] = None

        if needed is None:
            needed_coords = [c.coord for c in chip.primaries()]
        else:
            needed_coords = sorted(set(needed))
            for coord in needed_coords:
                if coord not in chip:
                    raise SimulationError(f"needed cell {coord} is not on the chip")
                if not chip[coord].is_primary:
                    raise SimulationError(
                        f"needed cell {coord} is a spare; only primaries carry "
                        "assay functionality"
                    )
        if not needed_coords:
            raise SimulationError("no needed primary cells to protect")

        #: cell indices of the protected primaries, aligned with :attr:`adj`.
        self.needed_idx = np.array([index[c] for c in needed_coords], dtype=np.int64)
        #: per-protected-primary tuple of adjacent spare *cell* indices —
        #: the graph the reference Kuhn matching walks.
        self.adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(index[s.coord] for s in chip.adjacent_spares(coord))
            for coord in needed_coords
        )
        self.needed_count = len(needed_coords)

        # -- dense screen arrays ------------------------------------------
        # Candidate spares: the union of all adjacency lists.  The screen
        # works in candidate positions (0..S-1), not raw cell indices.
        cand = sorted({s for lst in self.adj for s in lst})
        #: cell indices of the candidate spares, sorted.
        self.cand = np.array(cand, dtype=np.int64)
        self.n_cand = len(cand)
        pos_of = {s: i for i, s in enumerate(cand)}
        max_deg = max((len(lst) for lst in self.adj), default=0)
        width = max(max_deg, 1)
        #: (k, D) candidate positions, padded with 0 where :attr:`adj_mask`
        #: is False.
        self.adj_pos = np.zeros((self.needed_count, width), dtype=np.int32)
        self.adj_mask = np.zeros((self.needed_count, width), dtype=bool)
        for j, lst in enumerate(self.adj):
            for d, s in enumerate(lst):
                self.adj_pos[j, d] = pos_of[s]
                self.adj_mask[j, d] = True
        #: :attr:`adj` in candidate positions, same order — the Kuhn
        #: residue's adjacency over a (S,) candidate-availability row.
        self.adj_cand: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(pos_of[s] for s in lst) for lst in self.adj
        )
        #: maximum primary->spare degree.
        self.max_degree = max_deg
        # Reverse adjacency (candidate spare -> needed primaries), padded,
        # for the spare-demand gathers (:func:`demanded_spares`).
        members: list = [[] for _ in range(self.n_cand)]
        for j, lst in enumerate(self.adj):
            for s in lst:
                members[pos_of[s]].append(j)
        rev_width = max((len(m) for m in members), default=0) or 1
        self.rev_pos = np.zeros((max(self.n_cand, 1), rev_width), dtype=np.int32)
        self.rev_mask = np.zeros((max(self.n_cand, 1), rev_width), dtype=bool)
        for s, lst in enumerate(members):
            for d, j in enumerate(lst):
                self.rev_pos[s, d] = j
                self.rev_mask[s, d] = True
        #: :attr:`adj_pos`/:attr:`rev_pos` with every padded slot sent to
        #: row S/k: the all-zero last row of the packed peel's
        #: (S + 1)- and (k + 1)-row bit matrices.
        self.adj_bits_idx = np.where(
            self.adj_mask, self.adj_pos, self.n_cand
        ).astype(np.intp)
        self.rev_bits_idx = np.where(
            self.rev_mask, self.rev_pos, self.needed_count
        ).astype(np.intp)

    @property
    def geometry(self) -> DefectGeometry:
        """The chip's :class:`DefectGeometry`, built on first use.

        Lazy so structures serving i.i.d.-only workloads never pay for
        adjacency/ball derivation; cached so every model sampled on this
        structure (across engine batches) shares one instance.
        """
        if self._geometry is None:
            self._geometry = DefectGeometry.from_chip(self.chip)
        return self._geometry


def _pack_runs(mask: np.ndarray) -> np.ndarray:
    """Bit-slice a ``(runs, cells)`` mask into ``(cells, ceil(runs/8))`` uint8.

    Row ``c`` holds cell ``c`` for every run, eight runs per byte in
    ``np.packbits`` order (run ``r`` is bit ``7 - r % 8`` of byte
    ``r // 8``); pad bits past the last run are clear.  A mask broadcast
    from one row — the functional funnel's shared start and target sets —
    packs without reading its ``runs`` copies.
    """
    runs = mask.shape[0]
    width = -(-runs // 8)
    if runs and mask.strides[0] == 0:
        packed = np.zeros((mask.shape[1], width), dtype=np.uint8)
        packed[mask[0]] = np.packbits(np.ones(runs, dtype=bool))
        return packed
    return np.ascontiguousarray(np.packbits(mask, axis=0).T)


def demanded_spares(
    rev_pos: np.ndarray, rev_mask: np.ndarray, faulty: np.ndarray
) -> np.ndarray:
    """Which candidate spares a faulty needed primary is adjacent to.

    ``faulty`` is ``(runs, k)`` over the needed slots; ``rev_pos`` and
    ``rev_mask`` are a :class:`RepairStructure`'s padded reverse
    adjacency.  Returns the ``(runs, max(S, 1))`` mask of candidate
    spares adjacent to at least one faulty needed primary of the run —
    the spares its repair matching may use.  A gather, not a matmul:
    it runs on one core.
    """
    return (faulty[:, rev_pos] & rev_mask).any(axis=2)


def kuhn_repairable(
    adj: Tuple[Tuple[int, ...], ...],
    faulty_positions: Iterable[int],
    alive: np.ndarray,
) -> bool:
    """Kuhn matching feasibility: can every faulty primary get a spare?

    ``adj`` maps protected-primary positions to adjacent spare indices;
    ``alive`` flags the usable spares at those indices (a per-cell
    survival row, or the screen's per-candidate availability row over
    :attr:`RepairStructure.adj_cand`).  Correctness rests on
    the standard augmenting-path theorem: if a left vertex cannot be
    augmented at the moment it is processed, it is exposed in *some*
    maximum matching, so no saturating matching exists and we can stop.
    """
    match_right: Dict[int, int] = {}

    def try_augment(j: int, visited: Set[int]) -> bool:
        for s in adj[j]:
            if not alive[s] or s in visited:
                continue
            visited.add(s)
            owner = match_right.get(s)
            if owner is None or try_augment(owner, visited):
                match_right[s] = j
                return True
        return False

    for j in faulty_positions:
        if not try_augment(j, set()):
            return False
    return True


def _bit_rows(mask: np.ndarray) -> np.ndarray:
    """:func:`_pack_runs` plus one all-zero last row.

    The zero row is the gather target of padded adjacency slots.
    """
    packed = _pack_runs(mask)
    return np.vstack([packed, np.zeros((1, packed.shape[1]), dtype=np.uint8)])


def _gather_or(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``rows[idx[:, 0]] | rows[idx[:, 1]] | ...`` — one row per ``idx`` row."""
    acc = rows.take(idx[:, 0], axis=0)
    for d in range(1, idx.shape[1]):
        acc |= rows.take(idx[:, d], axis=0)
    return acc


def _gather_one_two(rows: np.ndarray, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per ``idx`` row, the bits set in at least one / at least two of
    ``rows[idx[:, 0]], rows[idx[:, 1]], ...``."""
    one = rows.take(idx[:, 0], axis=0)
    two = np.zeros_like(one)
    for d in range(1, idx.shape[1]):
        x = rows.take(idx[:, d], axis=0)
        two |= one & x
        one |= x
    return one, two


def _peel_round(
    struct: RepairStructure, f: np.ndarray, a: np.ndarray, live: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One peel iteration over packed runs: ``(dead, clash, committed)``.

    ``f`` holds the ``(k + 1)`` unmatched-faulty-primary rows and ``a``
    the ``(S + 1)`` available-candidate rows (:func:`_bit_rows`), ``live``
    the runs still peeling; every row is in :func:`_pack_runs` bit order.
    ``dead`` marks live runs with an unmatched faulty primary that has no
    available spare, ``clash`` the other live runs in which two primaries
    are forced onto one spare, and ``committed`` (``(k, W)``) the
    primaries of the remaining live runs that take a forced or private
    spare.  Commits are applied in place: each forced spare leaves ``a``
    and each committed primary leaves ``f``.
    """
    k = struct.needed_count
    adj, rev = struct.adj_bits_idx, struct.rev_bits_idx
    fk = f[:k]
    one, two = _gather_one_two(a, adj)         # available spares per primary
    dead = np.bitwise_or.reduce(fk & ~one, axis=0) & live
    forced = np.zeros_like(f)
    np.bitwise_and(fk, one & ~two, out=forced[:k])
    forced_one, forced_two = _gather_one_two(forced, rev)
    clash = np.bitwise_or.reduce(a[:-1] & forced_two, axis=0) & live & ~dead
    ok = live & ~dead & ~clash
    demand_one, demand_two = _gather_one_two(f, rev)
    private = np.zeros_like(a)
    np.bitwise_and(a[:-1], demand_one & ~demand_two, out=private[:-1])
    committed = fk & (forced[:k] | _gather_or(private, adj)) & ok
    a[:-1] &= ~(forced_one & ok)
    fk &= ~committed
    return dead, clash, committed


def _packed_peel(
    struct: RepairStructure,
    faulty: np.ndarray,
    ca: np.ndarray,
    verdict: np.ndarray,
    stats: ScreenStats,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peel every run at once; return the frozen runs' dense residual.

    ``faulty`` is the ``(runs, k)`` faulty needed mask and ``ca`` the
    ``(runs, S)`` candidate-spare survival.  Runs the loop decides get
    their ``verdict`` and ``stats`` count here.  Returns ``(rows, fa,
    ca)``: the batch rows of the frozen runs, their ``(m, k)`` unmatched
    faulty primaries and their ``(m, S)`` available candidates.
    """
    n_runs = faulty.shape[0]
    k = struct.needed_count
    f = _bit_rows(faulty)
    a = _bit_rows(ca)
    live = np.bitwise_or.reduce(f, axis=0)
    # Rows: bad_dead_end, bad_forced_conflict, good_peeled, frozen.
    fate = np.zeros((4, f.shape[1]), dtype=np.uint8)
    for _ in range(_MAX_PEEL_ITERATIONS):
        if not live.any():
            break
        dead, clash, committed = _peel_round(struct, f, a, live)
        progressed = np.bitwise_or.reduce(committed, axis=0)
        left = np.bitwise_or.reduce(f[:k], axis=0)
        fate[0] |= dead
        fate[1] |= clash
        fate[2] |= progressed & ~left
        # A run with no commit can never progress: its bits stop here.
        fate[3] |= live & ~(dead | clash | progressed)
        live = progressed & left
    fate[3] |= live                              # iteration cap
    # Pad bits are clear, so every set bit is a run of this batch.
    dead, clash, good, frozen = np.unpackbits(fate, axis=1, count=n_runs).view(bool)
    verdict[dead | clash] = BAD
    verdict[good] = GOOD
    stats.bad_dead_end = int(dead.sum())
    stats.bad_forced_conflict = int(clash.sum())
    stats.good_peeled = int(good.sum())
    rows = np.flatnonzero(frozen)
    byte, shift = rows >> 3, 7 - (rows & 7)
    fa = ((f[:k, byte] >> shift) & 1).T.astype(bool)
    ca = ((a[:-1, byte] >> shift) & 1).T.astype(bool)
    return rows, fa, ca


def _hall_and_kuhn(
    struct: RepairStructure,
    rows: np.ndarray,
    fa: np.ndarray,
    ca: np.ndarray,
    verdict: np.ndarray,
    stats: ScreenStats,
) -> None:
    """Decide the frozen runs: Hall bounds, then Kuhn on what they leave.

    ``rows`` are the runs' batch rows, ``fa`` their ``(m, k)`` unmatched
    faulty primaries and ``ca`` their ``(m, S)`` available candidates.
    """
    if not rows.size:
        return
    avail = ca[:, struct.adj_pos] & struct.adj_mask
    deg = avail.sum(axis=2)
    nf = fa.sum(axis=1)

    union = (demanded_spares(struct.rev_pos, struct.rev_mask, fa) & ca).sum(axis=1)
    hall_bad = union < nf
    verdict[rows[hall_bad]] = BAD
    stats.bad_hall = int(hall_bad.sum())
    min_deg = np.where(fa, deg, struct.needed_count + 7).min(axis=1)
    hall_good = ~hall_bad & (min_deg >= nf)
    verdict[rows[hall_good]] = GOOD
    stats.good_hall = int(hall_good.sum())

    residue = np.flatnonzero(~(hall_bad | hall_good))
    stats.residue = int(residue.size)
    for row in residue:
        # Peeling is feasibility-preserving, so matching the still-
        # unmatched faulty primaries onto the still-available
        # candidates decides the original fault map.
        good = kuhn_repairable(struct.adj_cand, np.flatnonzero(fa[row]), ca[row])
        verdict[rows[row]] = GOOD if good else BAD
        stats.residue_good += int(good)


def classify_repairable(
    struct: RepairStructure, alive: np.ndarray
) -> Tuple[np.ndarray, ScreenStats]:
    """Per-run repairability verdicts for a boolean survival matrix.

    ``alive`` is ``(runs, n_cells)``; the returned verdict array holds
    :data:`GOOD` or :data:`BAD` for every run (no ``UNDECIDED`` entries
    remain — the Kuhn fallback settles the residue).  The second return
    value counts how many runs each funnel stage decided.
    """
    if alive.ndim != 2 or alive.shape[1] != struct.n_cells:
        raise SimulationError(
            f"survival matrix must be (runs, {struct.n_cells}), got {alive.shape}"
        )
    n_runs = alive.shape[0]
    stats = ScreenStats(runs=n_runs)
    verdict = np.full(n_runs, UNDECIDED, dtype=np.int8)

    faulty_full = ~alive[:, struct.needed_idx]
    zero = ~faulty_full.any(axis=1)
    verdict[zero] = GOOD
    stats.zero_fault = int(zero.sum())
    if zero.all():
        return verdict, stats
    if struct.n_cand == 0:
        # Faulty primaries but no spares anywhere: all bad.
        bad = ~zero
        verdict[bad] = BAD
        stats.bad_dead_end = int(bad.sum())
        return verdict, stats

    with _profile.phase("kernel_peel"):
        rows, fa, ca = _packed_peel(
            struct, faulty_full, alive[:, struct.cand], verdict, stats
        )
    with _profile.phase("kernel_residue"):
        _hall_and_kuhn(struct, rows, fa, ca, verdict, stats)
    return verdict, stats


# -- within-point sharding: per-shard seed derivation -------------------------

def point_entropy(seed: object) -> int:
    """Normalize a point seed into ``SeedSequence`` entropy.

    Sharded/adaptive execution derives one child stream per batch with
    ``SeedSequence.spawn``, so the point seed must be spawnable: a
    non-negative integer (or ``None``, which draws fresh entropy and gives
    an unreproducible but still valid run).  A raw ``Generator`` cannot be
    spawned deterministically, so it is rejected rather than silently
    de-synchronized.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if seed < 0:
            raise SimulationError(
                f"sharded execution needs a non-negative integer seed, got {seed}"
            )
        return int(seed)
    raise SimulationError(
        "sharded execution needs an integer seed (or None), got "
        f"{type(seed).__name__}"
    )


def shard_seed(entropy: int, index: int) -> np.random.SeedSequence:
    """The seed of shard ``index`` of a point with the given entropy.

    Identical to ``SeedSequence(entropy).spawn(index + 1)[index]`` but
    constructible for any shard in isolation — a worker can seed shard 17
    without materializing shards 0..16.  ``SeedSequence`` hashes the
    ``(entropy, spawn_key)`` pair, so shards of one point never collide
    with each other, and points with distinct entropies never collide at
    any shard index.
    """
    if index < 0:
        raise SimulationError(f"shard index must be >= 0, got {index}")
    return np.random.SeedSequence(entropy, spawn_key=(index,))


def shard_plan(runs: int, batch: int) -> Tuple[int, ...]:
    """Split ``runs`` into ``batch``-sized shards (last one may be short).

    Delegates to :func:`repro.yieldsim.stats.split_batches` — the same
    partition :meth:`~repro.yieldsim.stats.StopRule.plan` uses, so the
    stop rule's reference semantics and the engine's shard boundaries are
    one definition.
    """
    return split_batches(runs, batch)


# -- batched samplers ---------------------------------------------------------

def survival_batch_sizes(runs: int, n_cells: int) -> Iterator[int]:
    """Batch sizes bounding the survival matrix at ~8 MB.

    Replicates the original ``YieldSimulator.run_survival`` batching
    formula exactly, so a given seed produces the identical RNG stream —
    and therefore identical successes — in both implementations.
    """
    batch = max(1, min(runs, _BATCH_BYTES // max(1, n_cells)))
    remaining = runs
    while remaining > 0:
        size = min(batch, remaining)
        remaining -= size
        yield size


# -- full per-point simulations ----------------------------------------------

def model_successes(
    struct: RepairStructure,
    model: DefectModel,
    runs: int,
    seed: RngLike = None,
    dtype: type = np.float32,
    criterion: Optional[object] = None,
) -> Tuple[int, ScreenStats, Optional[CriterionStats]]:
    """Successes among ``runs`` fault maps drawn from a defect model.

    The one sampling loop behind every point: the model draws each ~8 MB
    batch of survival rows from the point's Generator (the exact batching
    of :func:`survival_batch_sizes`, so legacy streams are preserved
    model-for-model), and the screening funnel classifies it in
    cache-sized slices (:data:`_CLASSIFY_BYTES`).  A run succeeds iff its
    verdict is GOOD or, with a ``criterion`` (a duck-typed
    :class:`repro.functional.SuccessCriterion`), iff
    ``criterion.evaluate_batch(struct, rows, verdict)`` accepts it — on
    the same draws and verdicts either way.  Returns ``(successes, screen
    stats, criterion stats or None)``, a deterministic function of
    (chip, model, criterion, runs, seed, dtype).  With
    :class:`~repro.yieldsim.defects.IIDBernoulli` and ``dtype=np.float64``
    it consumes the exact RNG stream of ``YieldSimulator.run_survival``
    (same batching, same draws), so the count is bit-identical to the
    brute-force simulator — every funnel reduction is exact.
    """
    if runs < 1:
        raise SimulationError(f"runs must be >= 1, got {runs}")
    funnel = None
    if criterion is not None:
        criterion.validate(struct.n_cells)
        funnel = CriterionStats()
    rng = make_rng(seed)
    geometry = struct.geometry
    sub = max(1, _CLASSIFY_BYTES // max(1, struct.n_cells))
    successes = 0
    screen = ScreenStats()
    for size in survival_batch_sizes(runs, struct.n_cells):
        with _profile.phase("funnel_sample"):
            alive = model.sample_batch(geometry, size, rng, dtype=dtype)
        for start in range(0, size, sub):
            rows = alive[start:start + sub]
            with _profile.phase("funnel_classify"):
                verdict, stats = classify_repairable(struct, rows)
            screen.merge(stats)
            if funnel is None:
                successes += int((verdict == GOOD).sum())
            else:
                got, cstats = criterion.evaluate_batch(struct, rows, verdict)
                successes += int(got.sum())
                funnel.merge(cstats)
    return successes, screen, funnel


@dataclass(frozen=True)
class PointSpec:
    """One Monte-Carlo point: a fault regime, its parameter and a seed.

    ``kind`` is ``"survival"`` (``param`` = survival probability p),
    ``"fixed"`` (``param`` = fault count m) or ``"model"`` (``model``
    carries an explicit :class:`~repro.yieldsim.defects.DefectModel`;
    ``param`` is its headline scalar, e.g. the sweep's nominal p).  The
    legacy kinds are aliases for :class:`IIDBernoulli`/:class:`FixedCount`
    — see :func:`point_model` — and keep their historical streams.

    ``seed`` feeds :func:`repro.faults.injection.make_rng`; every point
    owns its own generator, so results never depend on which other points
    are computed alongside it — the contract that makes sweep sharding
    bit-stable.

    ``criterion`` optionally replaces the success predicate: instead of
    counting matching-GOOD runs, the point counts runs accepted by a
    :class:`repro.functional.SuccessCriterion` (duck-typed here so the
    kernel never imports the functional layer).  ``None`` — the default —
    is the paper's matching verdict, byte-identical to historical
    streams.
    """

    kind: str
    param: float
    runs: int
    seed: object = None
    model: Optional[DefectModel] = None
    criterion: Optional[object] = None

    @classmethod
    def from_model(
        cls,
        model: DefectModel,
        runs: int,
        seed: object = None,
        param: Optional[float] = None,
        criterion: Optional[object] = None,
    ) -> "PointSpec":
        """A ``"model"``-kind point; ``param`` defaults to the severity."""
        return cls(
            kind="model",
            param=model.severity if param is None else param,
            runs=runs,
            seed=seed,
            model=model,
            criterion=criterion,
        )

    def validate(self, n_cells: int) -> None:
        if self.runs < 1:
            raise SimulationError(f"runs must be >= 1, got {self.runs}")
        if self.kind == "survival":
            if not 0.0 <= self.param <= 1.0:
                raise SimulationError(
                    f"survival probability must be in [0, 1], got {self.param}"
                )
        elif self.kind == "fixed":
            m = int(self.param)
            if m != self.param or m < 0:
                raise SimulationError(f"fault count must be an int >= 0, got {self.param}")
            if m > n_cells:
                raise SimulationError(f"cannot place {m} faults on {n_cells} cells")
        elif self.kind == "model":
            if self.model is None:
                raise SimulationError("a 'model' point needs a DefectModel")
            self.model.validate(n_cells)
        else:
            raise SimulationError(f"unknown point kind {self.kind!r}")
        if self.criterion is not None:
            self.criterion.validate(n_cells)


def point_model(spec: PointSpec) -> DefectModel:
    """The defect model a point samples from.

    The legacy kinds map onto the models that reproduce their historical
    streams exactly, so every regime runs through the one
    :func:`model_successes` loop.
    """
    if spec.kind == "survival":
        return IIDBernoulli(spec.param)
    if spec.kind == "fixed":
        return FixedCount(int(spec.param))
    if spec.model is None:
        raise SimulationError(f"point kind {spec.kind!r} carries no model")
    return spec.model
