"""Tests for time-expanded concurrent droplet routing."""

from __future__ import annotations

import heapq
import itertools

import numpy as np
import pytest

from repro.chip.builders import plain_chip
from repro.designs.catalog import DTMB_2_6, DTMB_3_6
from repro.designs.interstitial import build_with_primary_count
from repro.errors import RoutingError
from repro.faults.injection import make_rng
from repro.fluidics.concurrent_routing import (
    ConcurrentPlan,
    ConcurrentRouter,
    RouteRequest,
)
from repro.fluidics.routing import Router
from repro.functional import MultiplexedCriterion
from repro.functional.funnel import context_for
from repro.geometry.hex import Hex
from repro.geometry.hexgrid import RectRegion, offset_to_axial
from repro.reconfig.local import plan_local_repair
from repro.reconfig.remap import CellRemap
from repro.yieldsim.defects import IIDBernoulli
from repro.yieldsim.kernel import GOOD, RepairStructure, classify_repairable


@pytest.fixture
def chip():
    return plain_chip(RectRegion(10, 10))


@pytest.fixture
def router(chip):
    return ConcurrentRouter(chip)


def assert_plan_legal(chip, plan: ConcurrentPlan):
    """Validate every DMFB routing constraint on the finished plan."""
    names = list(plan.trajectories)
    horizon = plan.makespan
    for name, traj in plan.trajectories.items():
        for a, b in zip(traj, traj[1:]):
            assert a == b or b in chip.neighbors(a), (name, a, b)
    for t in range(horizon + 1):
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                pa, pb = plan.position(a, t), plan.position(b, t)
                # static constraint
                assert pa != pb and pb not in chip.neighbors(pa), (t, a, b)
                if t > 0:
                    # dynamic constraint vs the other droplet's previous cell
                    prev_b = plan.position(b, t - 1)
                    prev_a = plan.position(a, t - 1)
                    assert pa != prev_b and prev_b not in chip.neighbors(pa)
                    assert pb != prev_a and prev_a not in chip.neighbors(pb)


class TestTwoDroplets:
    def test_parallel_routes(self, chip, router):
        requests = [
            RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(9, 0)),
            RouteRequest("b", offset_to_axial(0, 9), offset_to_axial(9, 9)),
        ]
        plan = router.plan(requests)
        assert plan.position("a", plan.makespan) == offset_to_axial(9, 0)
        assert plan.position("b", plan.makespan) == offset_to_axial(9, 9)
        assert_plan_legal(chip, plan)

    def test_crossing_routes(self, chip, router):
        # a goes west->east, b goes north->south: paths must interleave.
        requests = [
            RouteRequest("a", offset_to_axial(0, 5), offset_to_axial(9, 5)),
            RouteRequest("b", offset_to_axial(5, 0), offset_to_axial(5, 9)),
        ]
        plan = router.plan(requests)
        assert_plan_legal(chip, plan)

    def test_swap_positions(self, chip, router):
        # The classic hard case: two droplets exchanging distant corners.
        requests = [
            RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(9, 9)),
            RouteRequest("b", offset_to_axial(9, 9), offset_to_axial(0, 0)),
        ]
        plan = router.plan(requests)
        assert_plan_legal(chip, plan)

    def test_makespan_close_to_lower_bound(self, chip, router):
        src_a, dst_a = offset_to_axial(0, 0), offset_to_axial(9, 0)
        src_b, dst_b = offset_to_axial(0, 9), offset_to_axial(9, 9)
        plan = router.plan(
            [RouteRequest("a", src_a, dst_a), RouteRequest("b", src_b, dst_b)]
        )
        bound = max(src_a.distance(dst_a), src_b.distance(dst_b))
        assert plan.makespan <= bound + 6  # small detour allowance


class TestThreeDroplets:
    def test_three_way(self, chip, router):
        requests = [
            RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(9, 9)),
            RouteRequest("b", offset_to_axial(9, 0), offset_to_axial(0, 9)),
            RouteRequest("c", offset_to_axial(0, 5), offset_to_axial(9, 4)),
        ]
        plan = router.plan(requests)
        assert_plan_legal(chip, plan)
        assert plan.total_moves() >= sum(
            r.source.distance(r.target) for r in requests
        )


class TestFaultAvoidance:
    def test_routes_around_fault_wall_gap(self):
        chip = plain_chip(RectRegion(10, 10))
        # Wall across row 5 with one gap at column 7.
        for col in range(10):
            if col != 7:
                chip.mark_faulty(offset_to_axial(col, 5))
        router = ConcurrentRouter(chip)
        requests = [
            RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(0, 9)),
            RouteRequest("b", offset_to_axial(9, 0), offset_to_axial(9, 9)),
        ]
        plan = router.plan(requests)
        assert_plan_legal(chip, plan)
        # Both trajectories funnel through the single gap.
        gap = offset_to_axial(7, 5)
        for name in ("a", "b"):
            assert gap in plan.trajectories[name]


class TestValidation:
    def test_adjacent_sources_rejected(self, router):
        with pytest.raises(RoutingError):
            router.plan(
                [
                    RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(5, 5)),
                    RouteRequest("b", offset_to_axial(1, 0), offset_to_axial(8, 8)),
                ]
            )

    def test_adjacent_targets_rejected(self, router):
        with pytest.raises(RoutingError):
            router.plan(
                [
                    RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(5, 5)),
                    RouteRequest("b", offset_to_axial(9, 9), offset_to_axial(5, 6)),
                ]
            )

    def test_duplicate_names_rejected(self, router):
        with pytest.raises(RoutingError):
            router.plan(
                [
                    RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(3, 3)),
                    RouteRequest("a", offset_to_axial(9, 9), offset_to_axial(6, 6)),
                ]
            )

    def test_empty_requests_rejected(self, router):
        with pytest.raises(RoutingError):
            router.plan([])

    def test_unusable_endpoint_rejected(self, chip):
        chip.mark_faulty(offset_to_axial(0, 0))
        router = ConcurrentRouter(chip)
        with pytest.raises(RoutingError):
            router.plan(
                [RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(5, 5))]
            )

    def test_impossible_instance_raises(self):
        # A 1-wide corridor cannot host two swapping droplets.
        chip = plain_chip(RectRegion(6, 1))
        router = ConcurrentRouter(chip)
        with pytest.raises(RoutingError):
            router.plan(
                [
                    RouteRequest("a", offset_to_axial(0, 0), offset_to_axial(5, 0)),
                    RouteRequest("b", offset_to_axial(5, 0), offset_to_axial(0, 0)),
                ],
                horizon=40,
            )


# -- the reservation-table planner equals the per-check reference -------------

class _ReferencePlanner(ConcurrentRouter):
    """The planner as it was before per-step reservation tables.

    Every legality check rebuilds the planned droplets' cells at steps
    t-1..t+1 and asks :meth:`ConcurrentRouter._conflicts` of each; parking
    asks it of every later step.  The shipped planner must explore the
    same states in the same order, so plans and errors are equal.
    """

    def _plan_in_order(self, order, horizon, cells=None):
        planned = {}
        for request in order:
            planned[request.name] = self._plan_single(request, planned, horizon)
        makespan = max(len(t) for t in planned.values())
        return ConcurrentPlan(
            trajectories={
                name: tuple(traj + [traj[-1]] * (makespan - len(traj)))
                for name, traj in planned.items()
            }
        )

    def _others_at(self, planned, t):
        return [traj[min(t, len(traj) - 1)] for traj in planned.values()]

    def _legal(self, cell, t, planned):
        if not self.router.usable(cell, set()):
            return False
        for step in (t - 1, t, t + 1):
            if step < 0:
                continue
            for other in self._others_at(planned, step):
                if self._conflicts(cell, other):
                    return False
        return True

    def _plan_single(self, request, planned, horizon):
        start = (request.source, 0)
        if not self._legal(request.source, 0, planned):
            raise RoutingError(
                f"{request.name}: source {request.source} conflicts with "
                "an already-planned droplet"
            )
        counter = itertools.count()
        open_heap = [
            (self.router.distance(request.source, request.target), next(counter), start)
        ]
        g = {start: 0}
        came = {}
        while open_heap:
            _, _, (cell, t) = heapq.heappop(open_heap)
            if cell == request.target and self._parked_ok(
                request.target, t, planned
            ):
                return self._reconstruct(came, (cell, t))
            if t >= horizon:
                continue
            for nxt in [cell] + self.router.neighbors(cell):
                state = (nxt, t + 1)
                if not self._legal(nxt, t + 1, planned):
                    continue
                tentative = g[(cell, t)] + 1
                if tentative < g.get(state, 1 << 30):
                    g[state] = tentative
                    came[state] = (cell, t)
                    priority = tentative + self.router.distance(nxt, request.target)
                    heapq.heappush(open_heap, (priority, next(counter), state))
        raise RoutingError(
            f"{request.name}: no route {request.source} -> {request.target} "
            f"within horizon {horizon}"
        )

    def _parked_ok(self, cell, t, planned):
        high = max((len(traj) for traj in planned.values()), default=0)
        for step in range(t, high + 1):
            for other in self._others_at(planned, step):
                if self._conflicts(cell, other):
                    return False
        return True


class _MemoRouter(Router):
    """Answers as ``router`` does, asking it once per cell: keeps the
    reference's repeated neighbour queries affordable."""

    def __init__(self, router):
        self._router = router
        self._neighbors = {}

    def usable(self, logical, blocked):
        return self._router.usable(logical, blocked)

    def neighbors(self, logical):
        out = self._neighbors.get(logical)
        if out is None:
            out = self._neighbors[logical] = self._router.neighbors(logical)
        return out

    def distance(self, a, b):
        return self._router.distance(a, b)


def _outcome(planner, requests, horizon=None):
    try:
        plan = planner.plan(requests, horizon)
    except RoutingError as exc:
        return str(exc)
    return plan.trajectories


def _assert_same_plans(chip, router, requests, horizon=None):
    """The shipped planner and the reference agree; returns whether a
    plan (not an error) came out."""
    got = _outcome(ConcurrentRouter(chip, router=router), requests, horizon)
    want = _outcome(
        _ReferencePlanner(chip, router=_MemoRouter(router)), requests, horizon
    )
    assert got == want, requests
    if isinstance(got, dict):
        assert list(got) == list(want)
    return isinstance(got, dict)


def _random_requests(rng, usable, k):
    """``k`` requests between ``2k`` distinct random usable cells, and the
    ``k`` droplets trading places: droplet i goes to droplet i+1's source,
    so the routes must cross."""
    picks = rng.choice(len(usable), size=2 * k, replace=False).tolist()
    sources = [usable[i] for i in picks[:k]]
    targets = [usable[i] for i in picks[k:]]
    return [
        [RouteRequest(f"d{i}", src, dst) for i, (src, dst) in enumerate(pairs)]
        for pairs in (
            zip(sources, targets),
            zip(sources, sources[1:] + sources[:1]),
        )
    ]


#: DTMB(2,6)/DTMB(3,6) n=60 x 2/3 droplets, 50 repaired fault maps each.
_DIFFERENTIAL_CASES = [
    pytest.param(spec, droplets, id=f"{spec.name}-{droplets}")
    for spec in (DTMB_2_6, DTMB_3_6)
    for droplets in (2, 3)
]


def _repaired_rows(spec, droplets, maps=50):
    """A multiplexed funnel context, its own requests when it has
    ``droplets`` of them (DTMB(2,6) n=60 hosts sites for two assays
    only), and ``maps`` matching-GOOD fault maps with a faulty primary."""
    assays = ("glucose", "lactate", "pyruvate")[: 2 if spec is DTMB_2_6 else droplets]
    struct = RepairStructure(build_with_primary_count(spec, 60).build())
    ctx = context_for(struct, MultiplexedCriterion(assays=assays, deadline=30))
    rng = make_rng(droplets * 100 + len(spec.name))
    rows = []
    for p in (0.85, 0.9, 0.95):
        alive = IIDBernoulli(p).sample_batch(struct.geometry, 60, rng)
        verdict, _ = classify_repairable(struct, alive)
        rows.extend(
            row
            for row in alive[verdict == GOOD]
            if not row[ctx.primary_mask].all()
        )
    assert len(rows) >= maps
    own = len(ctx.requests) == droplets
    return ctx, own, rows[:maps], np.random.default_rng(droplets)


@pytest.mark.parametrize("spec,droplets", _DIFFERENTIAL_CASES)
def test_planner_matches_reference_on_remapped_chips(spec, droplets):
    """``Router`` + ``CellRemap`` on repaired fault maps: the criterion's
    own requests and random ones, at the default and a tight horizon."""
    ctx, own, rows, rng = _repaired_rows(spec, droplets)
    chip = ctx.chip.copy()
    coords = chip.coords
    planned = failed = 0
    for row in rows:
        chip.clear_faults()
        chip.apply_fault_map(coords[j] for j in np.flatnonzero(~row).tolist())
        plan = plan_local_repair(chip)
        assert plan.complete
        router = Router(chip, CellRemap(chip, plan))
        usable = [c.coord for c in chip.primaries() if router.usable(c.coord, set())]
        spread, swap = _random_requests(rng, usable, k=droplets)
        cases = [(spread, None), (spread, 5 * droplets), (swap, None)]
        if own:
            cases.append((list(ctx.requests), None))
        for requests, horizon in cases:
            ok = _assert_same_plans(chip, router, requests, horizon)
            planned += ok
            failed += not ok
    assert planned >= len(rows) and failed > 0


@pytest.mark.parametrize("spec,droplets", _DIFFERENTIAL_CASES)
def test_planner_matches_reference_on_index_views(spec, droplets):
    """The funnel's ``_IndexRouter`` view of the same fault maps.  The
    view's heuristic table is widened from the criterion's targets to
    every cell so that random requests can be planned on it."""
    ctx, own, rows, rng = _repaired_rows(spec, droplets)
    coords = ctx.chip.coords
    lattice = Router(ctx.chip)
    every_target = {
        t: [lattice.distance(c, coords[t]) for c in coords]
        for t in range(len(coords))
    }
    planned = failed = 0
    for row in rows:
        view = ctx._index_view(row)
        view._target_dist = every_target
        usable = [c for c in range(len(coords)) if view.usable(c, set())]
        spread, swap = _random_requests(rng, usable, k=droplets)
        cases = [(spread, None), (spread, 5 * droplets), (swap, None)]
        if own:
            cases.append((list(ctx.index_requests), None))
        for requests, horizon in cases:
            ok = _assert_same_plans(ctx.chip, view, requests, horizon)
            planned += ok
            failed += not ok
    assert planned >= len(rows) and failed > 0


class _OneWayRouter(Router):
    """A plain-chip router whose adjacency is not symmetric: no move goes
    one lattice step in +q, the reverse move stays."""

    def neighbors(self, logical):
        return [n for n in super().neighbors(logical) if n - logical != Hex(1, 0)]


def test_planner_matches_reference_on_one_way_adjacency():
    """Conflicts are two-sided: ``a`` conflicts with ``b`` when either is
    the other's neighbour.  With one-way adjacency only one side holds for
    many pairs, so a one-sided test would plan differently."""
    # d2 reaches (3, 1) at step 3 but may not park there while d1 passes
    # (2, 1) at step 5: (2, 1) neighbours (3, 1), not the other way round.
    chip = plain_chip(RectRegion(6, 6))
    pinned = [
        RouteRequest("d0", Hex(-1, 2), Hex(0, 1)),
        RouteRequest("d1", Hex(-2, 4), Hex(2, 0)),
        RouteRequest("d2", Hex(3, 4), Hex(3, 1)),
    ]
    assert _assert_same_plans(chip, _OneWayRouter(chip), pinned)

    rng = np.random.default_rng(5)
    chip = plain_chip(RectRegion(7, 7))
    coords = list(chip.coords)
    planned = 0
    for _ in range(60):
        chip.clear_faults()
        chip.apply_fault_map(
            coords[i] for i in rng.choice(len(coords), size=4, replace=False)
        )
        router = _OneWayRouter(chip)
        usable = [c for c in coords if router.usable(c, set())]
        for k in (2, 3):
            for requests in _random_requests(rng, usable, k=k):
                planned += _assert_same_plans(chip, router, requests)
    assert planned >= 60
