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
2. **packed first round**: one pass of bit algebra over the whole batch,
   runs packed eight per byte (:func:`_pack_runs`).  A run in which some
   faulty needed primary has zero surviving adjacent spares is bad
   (Hall's condition fails on a singleton set).  A run in which every
   faulty needed primary has a surviving adjacent spare that no *other*
   faulty needed primary is adjacent to is good: those private spares
   are distinct, so they form a saturating matching.  These are exactly
   the runs the peel loop's first iteration would mark dead or peel to
   completion, so they count as ``bad_dead_end``/``good_peeled`` and
   every :class:`ScreenStats` field means what it did before the round
   existed.  Only the undecided runs, compacted, go on.
3. **peeling** (iterated to a fixed point over the undecided runs):

   * *dead ends* — a faulty primary left with no surviving spare makes
     the run bad.
   * *forced moves* — a faulty primary with exactly one surviving spare
     must take it.  Two primaries forced onto the same spare make the
     run bad; otherwise the assignment is committed and both endpoints
     leave the problem.
   * *private spares* — a surviving spare demanded by exactly one faulty
     primary can be greedily committed to it.

   Both commits are feasibility-preserving in *both* directions (the
   standard exchange argument: a demand-1 spare is used by no other
   faulty primary in any matching, and a degree-1 primary has no other
   choice), so peeling never changes the verdict — it only shrinks the
   residual problem, usually to nothing.
4. **Hall bounds** on the residual: if the union of surviving candidate
   spares is smaller than the number of unmatched faulty primaries the
   run is bad; if every unmatched primary's surviving degree is at least
   that number, Hall's condition holds and the run is good.
5. **Kuhn residue**: whatever survives the screen (typically well under
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
#: set (entry keys, gathers, demand counts) stays inside a ~2 MB L2 cache.
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
        #: maximum primary->spare degree; <= 1 enables a closed-form screen.
        self.max_degree = max_deg
        # Reverse adjacency (candidate spare -> needed primaries), padded,
        # for the spare-demand gathers (:func:`demanded_spares`, the
        # degree-<=-1 closed form).
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
        #: row S/k: the all-zero last row of the packed round's
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


def _classify_degree_one(
    struct: RepairStructure,
    alive: np.ndarray,
    faulty_full: np.ndarray,
    verdict: np.ndarray,
    stats: ScreenStats,
) -> Tuple[np.ndarray, ScreenStats]:
    """Closed-form screen for designs where every primary has <= 1 spare.

    With singleton neighborhoods (DTMB(1,6), the Figure 7 design) no
    matching is ever needed: a saturating assignment exists iff every
    faulty needed primary's unique spare survives and no surviving spare
    is demanded by two or more faulty primaries.
    """
    ca = alive[:, struct.cand]                      # (R, S)
    spare_pos = struct.adj_pos[:, 0]                # (k,) unique spare per primary
    has_spare = struct.adj_mask[:, 0]
    spare_alive = ca[:, spare_pos] & has_spare      # (R, k)
    dead_any = (faulty_full & ~spare_alive).any(axis=1)
    demand = (faulty_full[:, struct.rev_pos] & struct.rev_mask).sum(
        axis=2, dtype=np.uint8
    )                                               # (R, S) faulty demand per spare
    conflict_any = ((demand >= 2) & ca).any(axis=1)

    undecided = verdict == UNDECIDED
    bad_dead = undecided & dead_any
    verdict[bad_dead] = BAD
    stats.bad_dead_end = int(bad_dead.sum())
    bad_conflict = undecided & ~dead_any & conflict_any
    verdict[bad_conflict] = BAD
    stats.bad_forced_conflict = int(bad_conflict.sum())
    good = undecided & ~dead_any & ~conflict_any
    verdict[good] = GOOD
    stats.good_peeled = int(good.sum())
    return verdict, stats


def _bit_rows(mask: np.ndarray) -> np.ndarray:
    """:func:`_pack_runs` plus one all-zero last row.

    The zero row is the gather target of padded adjacency slots.
    """
    packed = _pack_runs(mask)
    return np.vstack([packed, np.zeros((1, packed.shape[1]), dtype=np.uint8)])


def _gather_or(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``rows[idx[:, 0]] | rows[idx[:, 1]] | ...`` — one row per ``idx`` row."""
    acc = rows[idx[:, 0]]
    for d in range(1, idx.shape[1]):
        acc |= rows[idx[:, d]]
    return acc


def _packed_round(
    struct: RepairStructure, faulty: np.ndarray, ca: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The packed first round: ``(dead, open)`` bit rows over the batch.

    ``faulty`` is ``(runs, k)`` over the needed slots and ``ca`` the
    ``(runs, S)`` candidate-spare survival.  Both results are packed run
    rows in :func:`_pack_runs` bit order with every pad bit clear.
    ``dead`` marks runs with a faulty needed primary that has no
    surviving candidate.  ``open`` marks runs with a faulty needed
    primary that has no surviving *private* candidate, one adjacent to no
    other faulty needed primary; a faulty run outside ``open`` is good.
    """
    fw = _bit_rows(faulty)                   # (k + 1, ceil(runs / 8))
    aw = _bit_rows(ca)                       # (S + 1, ceil(runs / 8))
    k = struct.needed_count
    dead = np.bitwise_or.reduce(
        fw[:k] & ~_gather_or(aw, struct.adj_bits_idx), axis=0
    )
    # Per spare: demanded by at least one / at least two faulty primaries.
    rev = struct.rev_bits_idx
    one = fw[rev[:, 0]]
    two = np.zeros_like(one)
    for d in range(1, rev.shape[1]):
        x = fw[rev[:, d]]
        two |= one & x
        one |= x
    aw[:-1] &= one & ~two                    # surviving private spares
    open_ = np.bitwise_or.reduce(
        fw[:k] & ~_gather_or(aw, struct.adj_bits_idx), axis=0
    )
    return dead, open_


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

    if struct.max_degree <= 1:
        return _classify_degree_one(struct, alive, faulty_full, verdict, stats)

    ca = alive[:, struct.cand]
    dead, open_ = _packed_round(struct, faulty_full, ca)
    # Pad bits are clear, so every set bit is a run of this batch.
    bad = np.flatnonzero(np.unpackbits(dead))
    verdict[bad] = BAD
    stats.bad_dead_end = int(bad.size)
    rows = np.flatnonzero(np.unpackbits(open_ & ~dead))
    if rows.size:
        verdict[rows] = _peel_and_match(struct, faulty_full[rows], ca[rows], stats)
    # Every other faulty run holds a private spare per faulty primary:
    # the peel loop's first iteration would commit them all at once.
    good = verdict == UNDECIDED
    verdict[good] = GOOD
    stats.good_peeled += int(good.sum())
    return verdict, stats


def _peel_and_match(
    struct: RepairStructure, faulty_full: np.ndarray, ca: np.ndarray, stats: ScreenStats
) -> np.ndarray:
    """Verdicts of the runs the packed round left open, compacted.

    ``faulty_full`` is their ``(runs, k)`` faulty needed mask (every run
    has a faulty primary) and ``ca`` their ``(runs, S)`` candidate-spare
    survival, which the peel loop's commits overwrite.  Runs only ever
    interact with themselves, so each run's path through the peel loop,
    the Hall bounds and the Kuhn residue — and the stage ``stats`` counts
    it under — is the one it would take in the full batch.
    """
    n_runs = faulty_full.shape[0]
    verdict = np.full(n_runs, UNDECIDED, dtype=np.int8)
    nf0 = faulty_full.sum(axis=1)
    S = struct.n_cand
    # One *entry* per (run, faulty needed primary).  All peeling state is
    # per-entry, so each iteration costs O(active entries), not O(runs x k).
    k = struct.needed_count
    flat = np.flatnonzero(faulty_full)
    # int32 keys keep the hot arrays half-sized; fall back to int64 for
    # batches too large to address that way (not reachable via the ~8 MB
    # batching of the samplers below).
    key_dtype = np.int32 if n_runs * S <= np.iinfo(np.int32).max else np.int64
    re, je = np.divmod(flat, k)              # entry -> run row / primary pos
    re = re.astype(key_dtype)
    je = je.astype(np.int32)
    keys = (re * key_dtype(S))[:, None] + struct.adj_pos[je].astype(key_dtype, copy=False)
    sv = struct.adj_mask[je]                 # (E, D) structural validity
    # Flat availability of every (run, candidate-spare); commits clear bits.
    ca_flat = ca.reshape(-1)
    row_left = nf0.astype(np.int64)          # unresolved entries per run

    stuck_re: list = []                      # entries handed to the final stage
    stuck_je: list = []

    for _ in range(_MAX_PEEL_ITERATIONS):
        if re.size == 0:
            break
        sp_alive = sv & ca_flat[keys]        # (E, D) usable spares per entry
        deg = sp_alive.sum(axis=1, dtype=np.uint8)

        # Dead ends: a faulty primary with no usable spare kills its run.
        # Compress their rows away before the more expensive phases.
        dead = deg == 0
        if dead.any():
            # Scatter-mark the dead rows (every entry row is still
            # undecided here, so the mask counts them exactly).
            newly = np.zeros(n_runs, dtype=bool)
            newly[re[dead]] = True
            verdict[newly] = BAD
            stats.bad_dead_end += int(newly.sum())
            live = verdict[re] == UNDECIDED
            re, je, keys, sv = re[live], je[live], keys[live], sv[live]
            sp_alive, deg = sp_alive[live], deg[live]
            if re.size == 0:
                break

        # Forced moves: a degree-1 primary must take its only spare.  Two
        # primaries forced onto the same spare are an exact infeasibility.
        live = None                          # None == every entry is live
        commit_key = np.full(re.size, -1, dtype=keys.dtype)
        forced = deg == 1
        if forced.any():
            fe = np.flatnonzero(forced)
            fd = sp_alive[fe].argmax(axis=1)
            fkey = keys[fe, fd]
            counts = np.bincount(fkey, minlength=n_runs * S)
            dup = counts[fkey] >= 2
            if dup.any():
                clash = np.zeros(n_runs, dtype=bool)
                clash[re[fe[dup]]] = True
                verdict[clash] = BAD
                stats.bad_forced_conflict += int(clash.sum())
                live = verdict[re] == UNDECIDED
                ok = live[fe]
                fe, fkey = fe[ok], fkey[ok]
            commit_key[fe] = fkey

        # Private spares: a surviving spare demanded by exactly one live
        # primary is committed to it.  Computed from the same pre-commit
        # snapshot as the forced moves — a forced spare carries its
        # forcer's demand, so forced and private picks can never collide,
        # and two private picks of one spare are impossible by definition.
        la = sp_alive if live is None else sp_alive & live[:, None]
        demand = np.bincount(keys[la], minlength=n_runs * S)
        priv = la & (demand[keys] == 1)
        haspriv = priv.any(axis=1) & (commit_key < 0)
        if haspriv.any():
            pe = np.flatnonzero(haspriv)
            pd = priv[pe].argmax(axis=1)
            commit_key[pe] = keys[pe, pd]

        committed = commit_key >= 0
        if committed.any():
            ca_flat[commit_key[committed]] = False
            row_left -= np.bincount(re[committed], minlength=n_runs)

        # Rows are independent, so a live row with no commit this
        # iteration can never progress: hand its entries to the final
        # stage now so the loop only iterates on shrinking work.
        progressed = np.zeros(n_runs, dtype=bool)
        progressed[re[committed]] = True
        keep_base = ~committed if live is None else ~committed & live
        stuck = keep_base & ~progressed[re]
        if stuck.any():
            stuck_re.append(re[stuck])
            stuck_je.append(je[stuck])
        keep = keep_base & ~stuck
        re, je, keys, sv = re[keep], je[keep], keys[keep], sv[keep]
    else:
        # Iteration cap: whatever is left goes to the exact matcher.
        if re.size:
            stuck_re.append(re)
            stuck_je.append(je)

    undecided = verdict == UNDECIDED
    peeled_good = undecided & (row_left == 0)
    verdict[peeled_good] = GOOD
    stats.good_peeled += int(peeled_good.sum())

    if stuck_re:
        s_re = np.concatenate(stuck_re)
        s_je = np.concatenate(stuck_je)
        live = verdict[s_re] == UNDECIDED
        s_re, s_je = s_re[live], s_je[live]
    else:
        s_re = np.empty(0, np.int64)
        s_je = s_re
    if s_re.size:
        rows, inverse = np.unique(s_re, return_inverse=True)
        # Dense residual problem, one row per stuck run: usually a tiny
        # fraction of the batch, so dense Hall bounds + Kuhn are cheap.
        fa = np.zeros((rows.size, struct.needed_count), dtype=bool)
        fa[inverse, s_je] = True
        ca = ca_flat.reshape(n_runs, S)[rows]
        avail = ca[:, struct.adj_pos] & struct.adj_mask
        deg = avail.sum(axis=2)
        nf = fa.sum(axis=1)

        union = (demanded_spares(struct.rev_pos, struct.rev_mask, fa) & ca).sum(
            axis=1
        )
        hall_bad = union < nf
        if hall_bad.any():
            verdict[rows[hall_bad]] = BAD
            stats.bad_hall += int(hall_bad.sum())
        min_deg = np.where(fa, deg, struct.needed_count + 7).min(axis=1)
        hall_good = ~hall_bad & (min_deg >= nf)
        if hall_good.any():
            verdict[rows[hall_good]] = GOOD
            stats.good_hall += int(hall_good.sum())

        residue = np.nonzero(~(hall_bad | hall_good))[0]
        stats.residue += int(residue.size)
        for row in residue:
            # Peeling is feasibility-preserving, so matching the still-
            # unmatched faulty primaries onto the still-available
            # candidates decides the original fault map.
            good = kuhn_repairable(struct.adj_cand, np.flatnonzero(fa[row]), ca[row])
            verdict[rows[row]] = GOOD if good else BAD
            stats.residue_good += int(good)
    return verdict


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
