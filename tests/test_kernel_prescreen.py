"""The packed peel of the matching kernel changes no output.

``classify_repairable`` peels every run with bit algebra over runs
packed eight per byte, where it once walked one entry per (run, faulty
primary).  The packing is an optimisation only: every verdict and every
:class:`ScreenStats` counter must equal what the per-entry peel loop
reported.  :func:`reference_classify` is that kernel, kept here as the
reference (``benchmarks/bench_kernel_screen.py`` imports it to repeat the
check at the paper's budget).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest

from repro.designs.catalog import ALL_DESIGNS, DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_with_primary_count
from repro.errors import SimulationError
from repro.yieldsim import kernel
from repro.yieldsim.defects import family_from_spec
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.kernel import (
    _MAX_PEEL_ITERATIONS,
    BAD,
    GOOD,
    UNDECIDED,
    RepairStructure,
    ScreenStats,
    _bit_rows,
    _pack_runs,
    _peel_round,
    classify_repairable,
    demanded_spares,
    kuhn_repairable,
)
from repro.yieldsim.sweeps import DEFAULT_P_GRID, survival_sweep


def reference_classify(
    struct: RepairStructure, alive: np.ndarray
) -> Tuple[np.ndarray, ScreenStats]:
    """``classify_repairable`` as it stood before any bit packing.

    Kept verbatim (the whole batch goes through the per-entry peel loop,
    and designs with at most one spare per primary through their closed
    form) so the packed peel is held to the verdicts *and* the per-stage
    counters of the loop it replaces.
    """
    if alive.ndim != 2 or alive.shape[1] != struct.n_cells:
        raise SimulationError(
            f"survival matrix must be (runs, {struct.n_cells}), got {alive.shape}"
        )
    n_runs = alive.shape[0]
    stats = ScreenStats(runs=n_runs)
    verdict = np.full(n_runs, UNDECIDED, dtype=np.int8)

    faulty_full = ~alive[:, struct.needed_idx]
    nf0 = faulty_full.sum(axis=1)
    zero = nf0 == 0
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
        # Closed form for singleton neighborhoods (DTMB(1,6), the Figure 7
        # design): no matching is ever needed.  A saturating assignment
        # exists iff every faulty needed primary's unique spare survives
        # and no surviving spare is demanded by two or more faulty
        # primaries.
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
    ca_flat = alive[:, struct.cand].reshape(-1).copy()
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
    stats.good_peeled = int(peeled_good.sum())

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
        stats.residue = int(residue.size)
        for row in residue:
            # Peeling is feasibility-preserving, so matching the still-
            # unmatched faulty primaries onto the still-available
            # candidates decides the original fault map.
            good = kuhn_repairable(struct.adj_cand, np.flatnonzero(fa[row]), ca[row])
            verdict[rows[row]] = GOOD if good else BAD
            stats.residue_good += int(good)
    return verdict, stats


def dense_round(struct: RepairStructure, alive: np.ndarray):
    """The first peel iteration's ``(dead, clash, committed)``, from dense
    boolean algebra: per run, per run and ``(runs, k)``."""
    faulty = ~alive[:, struct.needed_idx]
    ca = alive[:, struct.cand]
    deg = (ca[:, struct.adj_pos] & struct.adj_mask).sum(axis=2)
    dead = (faulty & (deg == 0)).any(axis=1)
    forced = faulty & (deg == 1)
    forced_on = (forced[:, struct.rev_pos] & struct.rev_mask).sum(axis=2)
    clash = ~dead & (ca & (forced_on >= 2)).any(axis=1)
    demand = (faulty[:, struct.rev_pos] & struct.rev_mask).sum(axis=2)
    private = ca & (demand == 1)
    served = (private[:, struct.adj_pos] & struct.adj_mask).any(axis=2)
    committed = faulty & (forced | served) & ~(dead | clash)[:, None]
    return dead, clash, committed


MODELS = ("iid", "negbin", "spot")
PS = (0.8, 0.9, 0.95, 0.99)
#: Not multiples of 8, so the packed rows carry pad bits.
BATCHES = (1, 7, 1003)


def draws(spec, model: str):
    """``(struct, p, alive)`` for n in (60, 120), every p and batch size."""
    family = family_from_spec(model)
    for n in (60, 120):
        chip = build_with_primary_count(spec, n).build()
        struct = RepairStructure(chip)
        for i, p in enumerate(PS):
            rng = np.random.default_rng(1000 + i)
            sampler = family(chip, p)
            for size in BATCHES:
                yield struct, p, sampler.sample_batch(struct.geometry, size, rng)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
def test_verdicts_and_counters_equal_reference(spec, model):
    for struct, p, alive in draws(spec, model):
        got, stats = classify_repairable(struct, alive)
        want, want_stats = reference_classify(struct, alive)
        assert (got == want).all(), (p, len(alive))
        assert stats.as_dict() == want_stats.as_dict(), (p, len(alive))


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
def test_packed_round_decides_the_dense_sets(spec, model):
    decided = 0
    for struct, p, alive in draws(spec, model):
        faulty = ~alive[:, struct.needed_idx]
        f = _bit_rows(faulty)
        a = _bit_rows(alive[:, struct.cand])
        live = np.bitwise_or.reduce(f, axis=0)
        dead, clash, committed = _peel_round(struct, f, a, live)
        want_dead, want_clash, want_committed = dense_round(struct, alive)
        runs = len(alive)
        for bits, want in (
            (dead, want_dead),
            (clash, want_clash),
            (committed, want_committed.T),
            (f[:-1], (faulty & ~want_committed).T),
        ):
            rows = np.unpackbits(bits, axis=-1)
            assert (rows[..., :runs] == want).all(), (p, runs)
            assert not rows[..., runs:].any(), (p, runs)    # pad bits stay clear
        peeled = faulty.any(axis=1) & (want_committed == faulty).all(axis=1)
        decided += int((want_dead | want_clash | peeled).sum())
    assert decided > 0


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("spec", ALL_DESIGNS, ids=lambda s: s.name)
def test_iteration_cap_hands_live_runs_to_hall_and_kuhn(spec, cap, monkeypatch):
    # The reference keeps its own bound: it read the constant at import.
    monkeypatch.setattr(kernel, "_MAX_PEEL_ITERATIONS", cap)
    past_peel = 0
    for model in MODELS:
        for struct, p, alive in draws(spec, model):
            got, stats = classify_repairable(struct, alive)
            want, _ = reference_classify(struct, alive)
            assert (got == want).all(), (model, p, len(alive))
            counts = stats.as_dict()
            stages = sum(counts[name] for name in (
                "zero_fault", "bad_dead_end", "bad_forced_conflict",
                "good_peeled", "bad_hall", "good_hall", "residue",
            ))
            assert stages == counts["runs"] == len(alive), (model, p, counts)
            past_peel += counts["bad_hall"] + counts["good_hall"] + counts["residue"]
    if cap == 1 and spec is DTMB_3_6:
        assert past_peel > 0


@pytest.mark.parametrize("runs", [1, 7, 8, 9, 1003])
def test_pack_runs_bit_order_and_clear_padding(runs):
    mask = np.random.default_rng(runs).random((runs, 5)) < 0.5
    packed = _pack_runs(mask)
    assert packed.shape == (5, -(-runs // 8)) and packed.dtype == np.uint8
    bits = np.unpackbits(packed, axis=1)
    assert (bits[:, :runs] == mask.T).all()
    assert not bits[:, runs:].any()
    shared = np.broadcast_to(mask[:1], mask.shape)
    assert (_pack_runs(shared) == _pack_runs(np.ascontiguousarray(shared))).all()


#: ``survival_sweep([DTMB_2_6, DTMB_3_6, DTMB_4_4], [60, 120],
#: DEFAULT_P_GRID, runs=500, seed=2005)`` on a fresh serial engine, as
#: computed before the kernel packed runs into bits: the packing must not
#: move a single run between counters, nor a single success.
PINNED_SCREEN_STATS = {
    "bad_dead_end": 1936,
    "bad_forced_conflict": 664,
    "bad_hall": 2,
    "good_hall": 67,
    "good_peeled": 24803,
    "residue": 71,
    "residue_good": 71,
    "runs": 33000,
    "zero_fault": 5457,
}
PINNED_SUCCESSES = [
    340, 354, 376, 400, 412, 450, 464, 472, 487, 493, 500,
    198, 236, 296, 307, 352, 404, 439, 449, 478, 496, 500,
    460, 463, 471, 483, 484, 487, 488, 495, 498, 500, 500,
    424, 429, 450, 471, 474, 483, 483, 495, 497, 499, 500,
    495, 499, 498, 499, 498, 500, 500, 500, 500, 500, 500,
    493, 493, 496, 495, 497, 499, 500, 499, 500, 500, 500,
]


def test_pinned_sweep_counters_and_successes():
    engine = SweepEngine()
    points = survival_sweep(
        [DTMB_2_6, DTMB_3_6, DTMB_4_4], [60, 120], DEFAULT_P_GRID,
        runs=500, seed=2005, engine=engine,
    )
    assert engine.screen_stats.as_dict() == PINNED_SCREEN_STATS
    assert [pt.estimate.successes for pt in points] == PINNED_SUCCESSES
