"""Functional-yield subsystem: funnel exactness, bit-identity, cache keys.

The contracts under test, in order of importance:

* the screen funnel is *exact* — its verdicts equal brute-force
  evaluation of every run through the real fluidics stack;
* a functional point consumes the identical RNG stream as a matching
  point, so serial == pool == sharded bit-identity extends to criterion
  points (flat and adaptive);
* criteria are content-addressed: no cache-key collisions between
  criteria (or against the default matching regime) at equal severity;
* default matching dispatches serialize exactly as before the subsystem
  existed (no criterion fields, no criteria provenance).
"""

from __future__ import annotations

import filecmp
import gc
import json
import os
import weakref

import numpy as np
import pytest

from repro.designs.catalog import DTMB_1_6, DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_with_primary_count
from repro.errors import CriterionError
from repro.faults.injection import make_rng
from repro.functional import (
    MatchingCriterion,
    MultiplexedCriterion,
    RoutingCriterion,
    criterion_from_spec,
    evaluate_functional,
)
from repro.fluidics.concurrent_routing import ConcurrentRouter
from repro.fluidics.routing import Router
from repro.functional.funnel import _bfs_distances, context_for
from repro.yieldsim.defects import IIDBernoulli, family_from_spec
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.kernel import (
    GOOD,
    PointSpec,
    RepairStructure,
    classify_repairable,
    model_successes,
)
from repro.yieldsim.scheduler import EnginePoint
from repro.yieldsim.stats import StopRule


def _chip(spec, n):
    return build_with_primary_count(spec, n).build()


# -- spec parsing and digests -------------------------------------------------

def test_criterion_spec_roundtrip():
    crit = criterion_from_spec("routing:assay=glucose,deadline=150")
    assert isinstance(crit, RoutingCriterion)
    assert crit.assay == "glucose"
    assert crit.deadline == 150
    assert crit.spec() == "routing:assay=glucose,deadline=150"
    assert criterion_from_spec(crit.spec()).digest() == crit.digest()

    mult = criterion_from_spec("multiplexed:assays=glucose+lactate,deadline=30")
    assert isinstance(mult, MultiplexedCriterion)
    assert mult.assays == ("glucose", "lactate")

    assert isinstance(criterion_from_spec("matching"), MatchingCriterion)


def test_criterion_spec_errors():
    with pytest.raises(CriterionError):
        criterion_from_spec("bogus")
    with pytest.raises(CriterionError):
        criterion_from_spec("routing:nope=1")
    with pytest.raises(CriterionError):
        criterion_from_spec("routing:deadline=0")


def test_criterion_digests_distinct():
    digests = {
        MatchingCriterion().digest(),
        RoutingCriterion().digest(),
        RoutingCriterion(deadline=100).digest(),
        RoutingCriterion(assay="lactate").digest(),
        MultiplexedCriterion().digest(),
        MultiplexedCriterion(deadline=30).digest(),
    }
    assert len(digests) == 6


# -- matching criterion: bit-identical to the kernel --------------------------

@pytest.mark.parametrize("model_spec", ["iid", "negbin", "spot"])
@pytest.mark.parametrize(
    "criterion",
    [MatchingCriterion(), RoutingCriterion(), MultiplexedCriterion()],
    ids=["matching", "routing", "multiplexed"],
)
def test_matching_criterion_equals_kernel(model_spec, criterion):
    """A criterion rides the kernel's one sampling loop: same draws, same
    verdicts, so its screen stats equal the criterion-less point's, and
    only the matching criterion reproduces its count."""
    chip = _chip(DTMB_2_6, 60)
    struct = RepairStructure(chip)
    model = family_from_spec(model_spec)(chip, 0.93)
    base, base_stats, none = model_successes(struct, model, 500, seed=123)
    assert none is None
    got, stats, crit = model_successes(
        struct, model, 500, seed=123, criterion=criterion
    )
    assert stats.as_dict() == base_stats.as_dict()
    assert crit.runs == 500
    assert crit.matching_fail == 500 - base
    if isinstance(criterion, MatchingCriterion):
        assert got == base
        assert crit.residue == 0  # matching never pays the scheduler
    else:
        assert got <= base


# -- the funnel is exact ------------------------------------------------------

def _reference_success(ctx, row, verdict):
    """Brute force: skip every screen, drive the scheduler for any run
    the matching kernel calls repairable."""
    if verdict != GOOD:
        return False
    return ctx._residue_run(row)


#: three concurrent assays: some runs need a rotated priority order.
THREE_ASSAYS = MultiplexedCriterion(
    assays=("glucose", "lactate", "pyruvate"), deadline=240
)


def _structure(spec, n, needed_stride=1):
    """A repair structure protecting every ``needed_stride``-th primary.

    A stride above 1 leaves primaries outside the needed set, whose
    faults the residue turns into routed-around dead cells.
    """
    chip = _chip(spec, n)
    if needed_stride == 1:
        return RepairStructure(chip)
    primaries = [cell.coord for cell in chip.primaries()]
    return RepairStructure(chip, needed=primaries[::needed_stride])


@pytest.mark.parametrize(
    "spec,n,criterion,needed_stride",
    [
        # Explicit ids keep the names of the original five cases.
        pytest.param(
            DTMB_2_6, 60, RoutingCriterion(deadline=200), 1,
            id="spec0-60-criterion0",
        ),
        pytest.param(
            DTMB_3_6, 60, RoutingCriterion(deadline=200), 1,
            id="spec1-60-criterion1",
        ),
        pytest.param(
            DTMB_3_6, 60, RoutingCriterion(deadline=18), 1,
            id="spec2-60-criterion2",
        ),
        pytest.param(
            DTMB_4_4, 24, RoutingCriterion(deadline=200), 1,
            id="spec3-24-criterion3",
        ),
        pytest.param(
            DTMB_3_6, 60, MultiplexedCriterion(deadline=14), 1,
            id="spec4-60-criterion4",
        ),
        pytest.param(
            DTMB_3_6, 60, THREE_ASSAYS, 1, id="multiplexed-3-assays",
        ),
        pytest.param(
            DTMB_2_6, 60, RoutingCriterion(deadline=200), 2,
            id="routing-half-needed",
        ),
    ],
)
def test_funnel_matches_full_scheduler(spec, n, criterion, needed_stride):
    """Every screen verdict must agree with full scheduler evaluation."""
    struct = _structure(spec, n, needed_stride)
    ctx = context_for(struct, criterion)
    rng = make_rng(7)
    for p in (0.88, 0.97):
        alive = IIDBernoulli(p).sample_batch(struct.geometry, 60, rng)
        from repro.yieldsim.kernel import classify_repairable

        verdict, _ = classify_repairable(struct, alive)
        ok, stats = evaluate_functional(struct, criterion, alive, verdict)
        expected = np.array(
            [
                _reference_success(ctx, alive[r], verdict[r])
                for r in range(alive.shape[0])
            ]
        )
        assert (ok == expected).all()
        decided = (
            stats.matching_fail + stats.spare_only + stats.route_clear
            + stats.unreachable + stats.residue
        )
        assert decided == stats.runs == 60


@pytest.mark.parametrize(
    "spec,n,criterion,needed_stride",
    [
        (DTMB_1_6, 60, RoutingCriterion(deadline=200), 1),
        (DTMB_2_6, 60, RoutingCriterion(deadline=200), 1),
        (DTMB_2_6, 60, RoutingCriterion(deadline=18), 1),
        (DTMB_2_6, 60, MultiplexedCriterion(deadline=14), 1),
        (DTMB_3_6, 60, RoutingCriterion(deadline=200), 1),
        (DTMB_3_6, 60, RoutingCriterion(deadline=18), 1),
        (DTMB_3_6, 60, MultiplexedCriterion(deadline=14), 1),
        (DTMB_3_6, 60, THREE_ASSAYS, 1),
        (DTMB_4_4, 24, RoutingCriterion(deadline=200), 1),
        (DTMB_2_6, 60, RoutingCriterion(deadline=200), 2),
        (DTMB_2_6, 60, MultiplexedCriterion(deadline=14), 2),
    ],
    ids=[
        "dtmb16-routing200",
        "dtmb26-routing200",
        "dtmb26-routing18",
        "dtmb26-multiplexed2",
        "dtmb36-routing200",
        "dtmb36-routing18",
        "dtmb36-multiplexed2",
        "dtmb36-multiplexed3",
        "dtmb44-routing200",
        "dtmb26-half-needed-routing200",
        "dtmb26-half-needed-multiplexed2",
    ],
)
def test_index_residue_matches_object_oracle(
    spec, n, criterion, needed_stride, monkeypatch
):
    """The funnel's index-space residue equals the object-level oracle.

    Compared on every matching-GOOD row, not only the rows the screens
    leave undecided: the index view must rebuild the same repair remap
    and run the same A* searches as ``plan_local_repair`` + ``CellRemap``
    + the real scheduler or concurrent router.
    """
    struct = _structure(spec, n, needed_stride)
    ctx = context_for(struct, criterion)
    plans = orders = 0
    plan, plan_in_order = ConcurrentRouter.plan, ConcurrentRouter._plan_in_order

    def counting_plan(self, *args, **kwargs):
        nonlocal plans
        plans += 1
        return plan(self, *args, **kwargs)

    def counting_order(self, *args, **kwargs):
        nonlocal orders
        orders += 1
        return plan_in_order(self, *args, **kwargs)

    monkeypatch.setattr(ConcurrentRouter, "plan", counting_plan)
    monkeypatch.setattr(ConcurrentRouter, "_plan_in_order", counting_order)

    rng = make_rng(11)
    batch = 25 if criterion.name == "multiplexed" else 80
    compared = accepted = 0
    for p in (0.80, 0.88, 0.93, 0.97):
        alive = IIDBernoulli(p).sample_batch(struct.geometry, batch, rng)
        verdict, _ = classify_repairable(struct, alive)
        for r in np.flatnonzero(verdict == GOOD):
            got = ctx._index_run(alive[r])
            assert got == ctx._residue_run(alive[r]), (p, int(r))
            compared += 1
            accepted += int(got)
    assert compared > 0
    if criterion is THREE_ASSAYS:
        assert accepted > 0
        assert orders > plans  # some runs retried a rotated order


# -- the weighted-A* bound ----------------------------------------------------

#: The routing grids of ``test_index_residue_matches_object_oracle``.
ROUTING_GRIDS = [
    (DTMB_1_6, 60, RoutingCriterion(deadline=200), 1),
    (DTMB_2_6, 60, RoutingCriterion(deadline=200), 1),
    (DTMB_2_6, 60, RoutingCriterion(deadline=18), 1),
    (DTMB_3_6, 60, RoutingCriterion(deadline=200), 1),
    (DTMB_3_6, 60, RoutingCriterion(deadline=18), 1),
    (DTMB_4_4, 24, RoutingCriterion(deadline=200), 1),
    (DTMB_2_6, 60, RoutingCriterion(deadline=200), 2),
]
ROUTING_GRID_IDS = [
    "dtmb16-routing200",
    "dtmb26-routing200",
    "dtmb26-routing18",
    "dtmb36-routing200",
    "dtmb36-routing18",
    "dtmb44-routing200",
    "dtmb26-half-needed-routing200",
]


def _good_rows(struct):
    """The matching-GOOD rows of the index-residue grids' routing batches."""
    rng = make_rng(11)
    for p in (0.80, 0.88, 0.93, 0.97):
        alive = IIDBernoulli(p).sample_batch(struct.geometry, 80, rng)
        verdict, _ = classify_repairable(struct, alive)
        yield alive[verdict == GOOD]


@pytest.mark.parametrize(
    "spec,n,criterion,needed_stride", ROUTING_GRIDS, ids=ROUTING_GRID_IDS
)
def test_edge_bound_covers_every_view_edge(spec, n, criterion, needed_stride):
    """``k`` bounds the lattice span of every logical edge of every view,
    so ``h/k`` is a consistent heuristic for the view's A*."""
    struct = _structure(spec, n, needed_stride)
    ctx = context_for(struct, criterion)
    coords = ctx.chip.coords
    lattice = Router(ctx.chip)
    widest = edges = 0
    for rows in _good_rows(struct):
        for row in rows:
            view = ctx._index_view(row)
            for u in range(len(coords)):
                if not view.usable(u, set()):
                    continue
                for v in view.neighbors(u):
                    widest = max(widest, lattice.distance(coords[u], coords[v]))
                    edges += 1
    assert edges > 0
    assert 1 <= widest <= ctx.k


@pytest.mark.parametrize(
    "spec,n,criterion,needed_stride", ROUTING_GRIDS, ids=ROUTING_GRID_IDS
)
def test_bound_screen_matches_index_run(spec, n, criterion, needed_stride):
    """Every run the stage-5 screen decides gets ``_index_run``'s verdict."""
    struct = _structure(spec, n, needed_stride)
    ctx = context_for(struct, criterion)
    decided = 0
    for rows in _good_rows(struct):
        matchings = [ctx._index_assignment(row) for row in rows]
        fail, success = ctx.bound_screen(rows, matchings)
        assert not (fail & success).any()
        for row, failed, cleared in zip(rows, fail, success):
            if failed or cleared:
                assert ctx._index_run(row) == bool(cleared)
                decided += 1
    assert decided > 0


@pytest.mark.parametrize(
    "spec", [DTMB_2_6, DTMB_3_6], ids=lambda spec: spec.name
)
def test_tight_deadline_still_reaches_astar(spec, monkeypatch):
    """At deadline 18 the bound leaves runs undecided: the funnel's
    residue still plans real A* routes for them."""
    struct = _structure(spec, 60)
    criterion = RoutingCriterion(deadline=18)
    context_for(struct, criterion)  # its baseline routes are not counted
    calls = 0
    route = Router.route

    def counting_route(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return route(self, *args, **kwargs)

    monkeypatch.setattr(Router, "route", counting_route)
    for rows in _good_rows(struct):
        verdict = np.full(rows.shape[0], GOOD)
        evaluate_functional(struct, criterion, rows, verdict)
    assert calls > 0


def _full_bfs_distances(allowed, start, target, nbr_pos, nbr_mask):
    """Reference BFS: expand every run until no frontier grows."""
    reached = start & allowed
    dist = np.full(reached.shape[0], -1, dtype=np.int64)
    dist[(reached & target).any(axis=1)] = 0
    level = 0
    while True:
        level += 1
        grow = (reached[:, nbr_pos] & nbr_mask).any(axis=2)
        grow &= allowed & ~reached
        if not grow.any():
            return dist
        reached |= grow
        dist[(dist < 0) & (grow & target).any(axis=1)] = level


def test_context_cache_lets_structures_die():
    """A cached funnel context must not keep its structure alive."""
    struct = _structure(DTMB_2_6, 120)
    context_for(struct, THREE_ASSAYS)
    alive = weakref.ref(struct)
    del struct
    gc.collect()
    assert alive() is None


def test_bfs_distances_match_full_expansion():
    chip = _chip(DTMB_2_6, 120)
    coords = chip.coords
    index = {c: i for i, c in enumerate(coords)}
    nbr_pos = np.zeros((len(coords), 6), dtype=np.int32)
    nbr_mask = np.zeros((len(coords), 6), dtype=bool)
    for i, c in enumerate(coords):
        for d, nb in enumerate(chip.neighbors(c)):
            nbr_pos[i, d] = index[nb]
            nbr_mask[i, d] = True
    rng = np.random.default_rng(20050307)
    runs, cells = 400, len(coords)
    allowed = rng.random((runs, cells)) < 0.75
    start = rng.random((runs, cells)) < 0.01
    target = rng.random((runs, cells)) < 0.01
    start[:40] = False  # empty start sets
    target[40:80] = False  # nothing to reach
    target[80:120] &= ~allowed[80:120]  # targets only on blocked cells
    want = _full_bfs_distances(allowed, start, target, nbr_pos, nbr_mask)
    got = _bfs_distances(allowed, start, target, nbr_pos, nbr_mask)
    assert np.array_equal(got, want)
    assert (want == -1).sum() >= 120 and (want == 0).any() and (want > 3).any()
    # The funnel passes one broadcast start/target pair for every run.
    src = np.zeros(cells, dtype=bool)
    dst = np.zeros(cells, dtype=bool)
    src[0] = dst[cells - 1] = True
    args = (
        allowed,
        np.broadcast_to(src, allowed.shape),
        np.broadcast_to(dst, allowed.shape),
        nbr_pos,
        nbr_mask,
    )
    assert np.array_equal(_bfs_distances(*args), _full_bfs_distances(*args))


def test_dtmb44_functional_collapse():
    """DTMB(4,4)'s spare lattice disconnects the primary fabric: the
    assay cannot run even on a fault-free chip, so functional yield is
    (near) zero while matching yield is near one."""
    struct = RepairStructure(_chip(DTMB_4_4, 60))
    ctx = context_for(struct, RoutingCriterion())
    assert not ctx.baseline_ok
    got, _, crit = model_successes(
        struct, IIDBernoulli(0.99), 200, seed=5, criterion=RoutingCriterion()
    )
    assert got == 0
    assert crit.matching_fail < 200  # matching finds repairs; routing fails


#: The one fault map among 10000 runs of DTMB(4,4), n=60, p=0.9, point
#: seed 2050 (run 9835) that the routing criterion accepts: a repair
#: remap can reconnect the fabric the fault-free layout leaves broken,
#: so DTMB(4,4)'s functional yield is small, not exactly zero.
DTMB44_ROUTABLE_FAULTS = (
    (-5, 10), (-3, 6), (-2, 5), (-1, 7), (0, 5), (0, 7), (1, 6), (2, 6),
    (3, 2), (3, 7), (4, 6), (5, 1), (7, 3), (8, 1), (8, 3),
)


def test_dtmb44_routable_fault_map_accepted_by_funnel_and_scheduler():
    from repro.geometry.hex import Hex
    from repro.yieldsim.kernel import classify_repairable

    chip = _chip(DTMB_4_4, 60)
    struct = RepairStructure(chip)
    criterion = RoutingCriterion(assay="glucose", deadline=200)
    index = {coord: i for i, coord in enumerate(chip.coords)}
    alive = np.ones((1, struct.n_cells), dtype=bool)
    for q, r in DTMB44_ROUTABLE_FAULTS:
        alive[0, index[Hex(q, r)]] = False
    verdict, _ = classify_repairable(struct, alive)
    ok, stats = evaluate_functional(struct, criterion, alive, verdict)
    assert ok[0]
    assert (stats.residue, stats.residue_ok) == (1, 1)
    ctx = context_for(struct, criterion)
    assert not ctx.baseline_ok  # the fault-free chip itself fails
    assert _reference_success(ctx, alive[0], verdict[0])


# -- engine bit-identity ------------------------------------------------------

def _tasks(chip, criterion, runs=400, stop=None):
    return [
        EnginePoint(
            chip,
            PointSpec("survival", p, runs, seed, criterion=criterion),
            stop=stop,
        )
        for p, seed in ((0.92, 11), (0.96, 12))
    ]


def test_functional_points_serial_pool_shard_identical(tmp_path):
    chip = _chip(DTMB_2_6, 60)
    criterion = RoutingCriterion(deadline=200)
    serial = SweepEngine().run_points(_tasks(chip, criterion))
    pooled = SweepEngine(jobs=2).run_points(_tasks(chip, criterion))
    cached = SweepEngine(cache_dir=str(tmp_path / "cache"))
    first = cached.run_points(_tasks(chip, criterion))
    again = cached.run_points(_tasks(chip, criterion))
    for estimates in (pooled, first, again):
        assert [
            (e.successes, e.trials) for e in estimates
        ] == [(e.successes, e.trials) for e in serial]
    assert cached.cache_hits == 2
    # Sharded streams differ from the flat stream by design (spawned
    # sub-seeds), but are identical across job counts at a fixed batch.
    shard1 = SweepEngine(shard_runs=100).run_points(_tasks(chip, criterion))
    shard2 = SweepEngine(jobs=2, shard_runs=100).run_points(
        _tasks(chip, criterion)
    )
    assert [(e.successes, e.trials) for e in shard1] == [
        (e.successes, e.trials) for e in shard2
    ]


def test_functional_points_adaptive_identity():
    chip = _chip(DTMB_2_6, 60)
    criterion = RoutingCriterion(deadline=200)
    stop = StopRule(target_half_width=0.05, min_runs=100, batch_runs=100)
    serial = SweepEngine().run_points(_tasks(chip, criterion, stop=stop))
    sharded = SweepEngine(jobs=2, shard_runs=100).run_points(
        _tasks(chip, criterion, stop=stop)
    )
    assert [(e.successes, e.trials) for e in serial] == [
        (e.successes, e.trials) for e in sharded
    ]


def test_functional_equals_matching_stream():
    """Same seeds, different predicate: the criterion point judges the
    identical fault maps, so functional successes never exceed matching
    successes run for run."""
    chip = _chip(DTMB_3_6, 60)
    engine = SweepEngine()
    base = engine.run_points(_tasks(chip, None, runs=300))
    func = engine.run_points(
        _tasks(chip, RoutingCriterion(deadline=200), runs=300)
    )
    for b, f in zip(base, func):
        assert f.successes <= b.successes
        assert f.trials == b.trials


# -- cache keys ---------------------------------------------------------------

def test_cache_keys_distinct_across_criteria():
    chip = _chip(DTMB_2_6, 60)
    engine = SweepEngine()

    def key(criterion):
        return engine.point_key(
            EnginePoint(
                chip, PointSpec("survival", 0.95, 1000, 42, criterion=criterion)
            )
        )

    keys = [
        key(None),
        key(MatchingCriterion()),
        key(RoutingCriterion()),
        key(RoutingCriterion(deadline=100)),
        key(MultiplexedCriterion()),
    ]
    assert len(set(keys)) == len(keys)
    # Content addressing: an equal-content criterion reuses the key.
    assert key(RoutingCriterion()) == key(
        criterion_from_spec("routing:assay=glucose,deadline=200")
    )


# -- telemetry + provenance ---------------------------------------------------

def test_point_log_funnel_telemetry(tmp_path):
    engine = SweepEngine(cache_dir=str(tmp_path / "cache"))
    chip = _chip(DTMB_3_6, 60)
    criterion = RoutingCriterion(deadline=200)
    task = [
        EnginePoint(chip, PointSpec("survival", 0.93, 200, 3, criterion=criterion))
    ]
    engine.run_points(task)
    record = engine.point_log[-1]
    assert record.criterion == criterion.spec()
    assert record.criterion_digest == criterion.digest()
    assert record.funnel is not None
    funnel = record.funnel
    assert funnel["runs"] == 200
    assert (
        funnel["matching_fail"] + funnel["spare_only"] + funnel["route_clear"]
        + funnel["unreachable"] + funnel["residue"]
    ) == 200
    payload = record.as_dict()
    assert payload["criterion"] == criterion.spec()
    assert payload["funnel"]["residue_ok"] <= payload["funnel"]["residue"]

    # A cache hit reports the criterion but no funnel counters: the cache
    # stores results, not telemetry.
    engine.run_points(task)
    hit = engine.point_log[-1]
    assert hit.criterion == criterion.spec()
    assert hit.funnel is None


def test_default_point_record_serialization_unchanged():
    engine = SweepEngine()
    chip = _chip(DTMB_2_6, 60)
    engine.run_points([EnginePoint(chip, PointSpec("survival", 0.95, 50, 1))])
    payload = engine.point_log[-1].as_dict()
    assert "criterion" not in payload
    assert "criterion_digest" not in payload
    assert "funnel" not in payload


def test_registry_provenance_criteria_block():
    from repro.experiments import registry

    crit = criterion_from_spec("routing:assay=glucose,deadline=200")
    result = registry.execute(
        registry.get("fig9"),
        runs=40,
        seed=2005,
        knobs={
            "criterion": crit,
            "designs": (DTMB_2_6,),
            "ns": (60,),
            "ps": (0.95,),
        },
    )
    budget = result.provenance.as_dict()["budget"]
    assert budget["criteria"] == [
        {"spec": crit.spec(), "digest": crit.digest()}
    ]
    assert budget["criterion_funnel"]["runs"] == 40
    assert result.provenance.stable_dict()["criteria"][0]["digest"] == crit.digest()

    # Default dispatches must not grow new provenance fields.
    plain = registry.execute(
        registry.get("fig9"),
        runs=40,
        seed=2005,
        knobs={"designs": (DTMB_2_6,), "ns": (60,), "ps": (0.95,)},
    )
    assert "criteria" not in plain.provenance.as_dict()["budget"]
    assert "criterion_funnel" not in plain.provenance.as_dict()["budget"]
    assert "criteria" not in plain.provenance.stable_dict()


# -- CLI ----------------------------------------------------------------------

def test_cli_rejects_criterion_on_fixed_experiments(capsys):
    from repro.cli import main

    assert main(["table1", "--criterion", "routing"]) == 2
    assert "does not accept --criterion" in capsys.readouterr().err


def test_cli_rejects_malformed_criterion(capsys):
    from repro.cli import main

    assert main(["fig9", "--runs", "10", "--criterion", "bogus"]) == 2
    assert "unknown criterion" in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.parametrize(
    "extra",
    [[], ["--adaptive"], ["--trace"]],
    ids=["flat", "adaptive", "trace"],
)
def test_cli_all_jobs_bit_identical(extra, tmp_path, monkeypatch, capsys):
    """`repro all --jobs N` is the serial loop run side by side.

    Stdout, every per-experiment file, the adaptive-budget notes on stderr
    (in registry order) and the merged trace all match the serial run.
    The registry is narrowed to cheap experiments in the parent (workers
    resolve experiments by name, so the subset only bounds what gets
    scheduled, not how each one runs)."""
    from repro.cli import main
    from repro.experiments import registry
    from repro.obs.trace import span_signature, validate_trace

    names = ("table1", "fig7", "fig10", "fig13")
    subset = [registry.get(name) for name in names]
    monkeypatch.setattr(registry, "all_experiments", lambda: subset)

    def run_all(label, *flags):
        out = tmp_path / label
        argv = ["all", "--runs", "60", "--seed", "9", "--out", str(out)]
        if extra == ["--trace"]:
            argv += ["--trace", str(tmp_path / f"{label}.trace.json")]
        else:
            argv += extra
        assert main(argv + list(flags)) == 0
        captured = capsys.readouterr()
        notes = [
            line for line in captured.err.splitlines()
            if line.startswith("  adaptive budget:")
        ]
        return out, captured.out.replace(str(out), "OUT"), notes

    serial_dir, serial_out, serial_notes = run_all("serial", "--jobs", "1")
    shard_dir, shard_out, shard_notes = run_all("shard", "--jobs", "3")

    assert serial_out == shard_out
    for root, _dirs, files in os.walk(serial_dir):
        rel_root = os.path.relpath(root, serial_dir)
        for name in files:
            if name == "manifest.json":
                continue
            rel = os.path.join(rel_root, name)
            assert filecmp.cmp(
                serial_dir / rel, shard_dir / rel, shallow=False
            ), f"{rel} differs between serial and sharded `all`"

    manifests = [
        json.loads((d / "manifest.json").read_text())["experiments"]
        for d in (serial_dir, shard_dir)
    ]
    for name in names:
        assert (
            manifests[0][name]["provenance"]["digest"]
            == manifests[1][name]["provenance"]["digest"]
        )

    # Notes carry no experiment name: equal sequences mean registry order.
    adaptive = [
        name for name in names
        if manifests[0][name]["provenance"]["budget"]["stop_rule"] is not None
        and manifests[0][name]["provenance"]["budget"]["mc_runs_requested"]
    ]
    assert len(serial_notes) == len(adaptive)
    assert shard_notes == serial_notes
    if "--adaptive" in extra:
        assert adaptive == ["fig10", "fig13"]

    if extra == ["--trace"]:
        spent = sum(
            entry["provenance"]["budget"]["mc_runs_effective"]
            for entry in manifests[1].values()
        )
        assert spent > 0
        traces = [
            json.loads((tmp_path / f"{label}.trace.json").read_text())
            for label in ("serial", "shard")
        ]
        for trace in traces:
            points = [e for e in validate_trace(trace) if e["name"] == "point"]
            assert sum(e["args"]["effective"] for e in points) == spent
        # Worker spans merge in registry order: the same spans, in the
        # same order, as the serial engine records.
        assert span_signature(traces[0]) == span_signature(traces[1])


# -- serve --------------------------------------------------------------------

def test_serve_point_request_carries_criterion():
    from repro.serve.app import ReproServer, ServeConfig
    from repro.serve.protocol import BundleRequest, PointRequest

    server = ReproServer(ServeConfig())
    request = PointRequest.from_dict(
        {
            "design": "DTMB(2,6)", "n": 60, "param": 0.95, "runs": 100,
            "seed": 1, "criterion": "routing:assay=glucose,deadline=150",
        }
    )
    task, _digest = server._task_for(request)
    assert task.spec.criterion is not None
    assert task.spec.criterion.deadline == 150
    # Distinct coalescing/cache keys vs the default matching point.
    plain, _ = server._task_for(
        PointRequest.from_dict(
            {"design": "DTMB(2,6)", "n": 60, "param": 0.95, "runs": 100,
             "seed": 1}
        )
    )
    assert server.engine.point_key(task) != server.engine.point_key(plain)

    # Bundle identity: conditional field, so legacy keys are unchanged.
    with_crit = BundleRequest.from_dict(
        "fig9", {"runs": 100, "criterion": "routing"}
    ).identity()
    without = BundleRequest.from_dict("fig9", {"runs": 100}).identity()
    assert "criterion" in with_crit
    assert "criterion" not in without


def test_scenario_packs_registered():
    from repro.experiments import registry

    for name in ("fig7-functional", "fig9-functional", "scenario-multiplexed"):
        experiment = registry.get(name)
        assert experiment.budget.adaptive_capable
    assert registry.get("fig9").criterion_knob
    assert registry.get("fig7").criterion_knob
    assert not registry.get("table1").criterion_knob
