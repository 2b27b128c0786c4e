"""The functional funnel's bit-sliced screens and index-level matching.

* the bit-sliced :func:`_bfs_distances` equals a plain boolean full
  expansion at every run count, including the partial bytes of the
  packing, under both screen subgraphs;
* stage 4 is an exact one-sided fail: every run it marks unreachable
  fails under the object-level oracle;
* :func:`_index_matching` returns exactly the dict ``hopcroft_karp``
  returns on the same graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_functional import _full_bfs_distances

from repro.designs.catalog import DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_with_primary_count
from repro.faults.injection import make_rng
from repro.functional import MultiplexedCriterion, RoutingCriterion
from repro.functional.funnel import _bfs_distances, _index_matching, context_for
from repro.reconfig.bipartite import BipartiteGraph, hopcroft_karp
from repro.yieldsim.defects import IIDBernoulli
from repro.yieldsim.kernel import GOOD, RepairStructure, classify_repairable


def _structure(spec, n, needed_stride=1):
    chip = build_with_primary_count(spec, n).build()
    if needed_stride == 1:
        return RepairStructure(chip)
    primaries = [cell.coord for cell in chip.primaries()]
    return RepairStructure(chip, needed=primaries[::needed_stride])


@pytest.mark.parametrize("n", [60, 120])
@pytest.mark.parametrize("spec", [DTMB_2_6, DTMB_3_6, DTMB_4_4], ids=lambda s: s.name)
def test_bit_sliced_bfs_matches_full_expansion(spec, n):
    """Every leg under the stage-3 and stage-4 masks, at run counts that
    leave the packed bytes empty, partial and full."""
    struct = _structure(spec, n)
    ctx = context_for(struct, RoutingCriterion())
    rng = make_rng(29)
    alive = IIDBernoulli(0.9).sample_batch(struct.geometry, 1000, rng)
    screens = (
        (alive & ctx.primary_mask, ctx.leg_nodes),
        (ctx.route_images(alive), ctx.leg_anchors),
    )
    reached = unreached = 0
    for runs in (0, 1, 7, 8, 9, 1000):
        for allowed_all, legs in screens:
            allowed = allowed_all[:runs]
            for src, dst in legs:
                start = np.broadcast_to(src, allowed.shape)
                target = np.broadcast_to(dst, allowed.shape)
                want = _full_bfs_distances(
                    allowed, start, target, ctx.nbr_pos, ctx.nbr_mask
                )
                got = _bfs_distances(
                    allowed, start, target, ctx.nbr_pos, ctx.nbr_mask
                )
                assert got.dtype == want.dtype and np.array_equal(got, want)
                # Materialized (non-broadcast) start/target sets pack the
                # general way and must agree too.
                got = _bfs_distances(
                    allowed, start.copy(), target.copy(), ctx.nbr_pos, ctx.nbr_mask
                )
                assert np.array_equal(got, want)
                reached += int((want > 0).sum())
                unreached += int((want < 0).sum())
    assert reached > 0 and unreached > 0


@pytest.mark.parametrize(
    "spec,n,criterion,needed_stride,runs",
    [
        (DTMB_2_6, 60, RoutingCriterion(deadline=18), 1, 300),
        (DTMB_3_6, 60, RoutingCriterion(deadline=200), 1, 300),
        (DTMB_3_6, 60, RoutingCriterion(deadline=18), 1, 300),
        (DTMB_4_4, 60, RoutingCriterion(deadline=200), 1, 300),
        (DTMB_2_6, 60, RoutingCriterion(deadline=200), 2, 300),
        (DTMB_3_6, 60, MultiplexedCriterion(deadline=14), 1, 60),
    ],
    ids=[
        "dtmb26-routing18",
        "dtmb36-routing200",
        "dtmb36-routing18",
        "dtmb44-routing200",
        "dtmb26-half-needed-routing200",
        "dtmb36-multiplexed2",
    ],
)
def test_stage4_unreachable_runs_fail_the_oracle(
    spec, n, criterion, needed_stride, runs
):
    """Stage 4 is sound on any matching-GOOD run, not only on the runs
    stage 3 leaves: each run it fails, the oracle fails too."""
    struct = _structure(spec, n, needed_stride)
    ctx = context_for(struct, criterion)
    rng = make_rng(31)
    flagged = 0
    for p in (0.85, 0.93):
        alive = IIDBernoulli(p).sample_batch(struct.geometry, runs, rng)
        verdict, _ = classify_repairable(struct, alive)
        rows = np.flatnonzero(verdict == GOOD)
        for r in rows[ctx.unreachable(alive[rows])]:
            assert not ctx._residue_run(alive[r]), (p, int(r))
            flagged += 1
    assert flagged > 0


def _random_graph(rng, n_left, n_right, density):
    """Int-labelled bipartite graph: left labels ascend with gaps, right
    labels are disjoint from them, edge lists in random order."""
    left = sorted(rng.choice(1000, size=n_left, replace=False).tolist())
    right = (1000 + rng.choice(1000, size=n_right, replace=False)).tolist()
    adj = []
    for _ in left:
        picks = [v for v in right if rng.random() < density]
        rng.shuffle(picks)
        adj.append(picks)
    return left, right, adj


def test_index_matching_equals_hopcroft_karp():
    rng = np.random.default_rng(20050307)
    unsaturated = saturated = 0
    for trial in range(600):
        n_left = int(rng.integers(0, 12))
        n_right = int(rng.integers(1, 12))
        density = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
        left, right, adj = _random_graph(rng, n_left, n_right, density)
        edges = [(u, v) for u, vs in zip(left, adj) for v in vs]
        want = hopcroft_karp(BipartiteGraph(left, right, edges))
        got = _index_matching(left, adj)
        assert got == want, trial
        assert list(got.items()) == list(want.items()), trial
        if len(want) < len(left):
            unsaturated += 1
        elif left:
            saturated += 1
    assert unsaturated > 50 and saturated > 50
