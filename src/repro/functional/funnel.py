"""Screen-funnel evaluation of functional success criteria.

Deciding "does the assay still run on this repaired chip?" takes a Python
A* per route per run — exactly the per-run cost the matching kernel's
funnel was built to avoid.  This module reuses that idiom for the
criterion layer: a cascade of *exact* vectorized screens decides most runs
of a survival batch at once, and only the ambiguous residue pays for
route search.

**The weighted-A* bound.**  The routing criterion scores the routes
:meth:`Router.route <repro.fluidics.routing.Router.route>` plans: A* over
logical cells with the lattice distance ``h`` as heuristic, each cell
expanded at most once.  Under a repair remap a logical edge joins two
primaries whose *images* are physically adjacent, and each image is the
primary itself or, for a needed primary, one of its ``struct.adj``
spares.  Let ``k`` (:attr:`_FunnelContext.k`) be the largest lattice
distance between two primaries with physically adjacent candidate images:
a static property of the structure, 2 or 3 on the catalog designs.  Every
logical edge of every repaired run spans at most ``k`` lattice steps, so
by the triangle inequality ``h/k`` is a consistent heuristic, and the
router runs weighted A* with weight ``k`` and no reopening.  Such a search
returns a path at most ``k`` times the shortest (Pohl, "Heuristic search
viewed as path finding in a graph", *AI* 1970; Likhachev, Gordon and
Thrun, "ARA*: Anytime A* with provable bounds on sub-optimality", NIPS
2003).  So for sequential legs with shortest logical lengths ``d*``, the
A* total ``L`` obeys ``Σd* <= L <= k·Σd*``: the run fails if some leg is
disconnected or ``Σd* > deadline``, and succeeds if
``k·Σd* <= deadline``, whatever path A* would pick.  Stages 3 and 5 rest
on this.

The funnel, in order (every stage is exact — never a heuristic):

1. **matching fail** — a run the kernel already classified BAD has no
   complete repair plan, so no remap exists and every functional
   criterion fails.  (The kernel's GOOD verdict and
   ``plan_local_repair(...).complete`` are the same bipartite question on
   the same graph.)
2. **spare-only faults** — a run with no faulty *primary* anywhere gets
   the identity remap, and the router never inspects spare health for
   identity-mapped primaries, so its logical graph equals the fault-free
   baseline's: the run takes the precomputed baseline verdict.
3. **alive-primary route screen** (routing criterion only, one-sided
   success) — if every functional site is alive, any physical path
   through alive primary cells is a valid logical route under *any*
   complete remap (alive primaries map to themselves, so consecutive
   cells stay logically adjacent and usable).  A bit-sliced multi-run BFS
   over the alive-primary subgraph computes per-leg distances ``d_ap``;
   since ``d* <= d_ap``, the run succeeds if every leg connects and
   ``k·Σd_ap <= deadline`` (the bound above).  This subsumes the
   untouched-baseline-route fast path — a surviving baseline route is one
   such alive-primary path — and also covers detours around faults.
4. **reachability / distance bound** (one-sided fail) — a logical
   route's physical images form a walk from the source's anchor set (the
   cell itself, plus its adjacent spares when the matching may remap it)
   to the target's anchors, and every image is an alive primary or an
   alive spare adjacent to a faulty *needed* primary: the only spares
   the repair matching hands out (:meth:`_FunnelContext.route_images`).
   A multi-source BFS over that images set therefore lower-bounds every
   leg: if some leg's anchors are unreachable (or dead), or the per-leg
   lower bounds already exceed the deadline (sum for sequential legs,
   max for the concurrent makespan), the run fails — whatever the
   scheduler would try.

   The BFS screens run bit-sliced (:func:`_bfs_packed`): masks are
   packed eight runs per byte along the run axis, one level is a gather
   of every cell's neighbour rows OR-reduced, and byte columns leave the
   working set once none of their runs can still change distance.  The
   legs of one screen ride side by side as extra byte columns of a single
   BFS (:func:`_leg_distances`), so each level's Python cost is paid once
   for all legs.
5. **residue** — each remaining run gets its repair assignment, the
   Hopcroft–Karp matching ``plan_local_repair`` computes, on the same
   graph in the same visiting order (:func:`_index_matching`, over cell
   indices); faulty primaries outside the needed set become
   routed-around dead cells.  A repaired run's logical graph is the
   physical subgraph on its *image set* (alive primaries plus the
   assigned spares), so for the routing criterion one packed BFS over the
   exact image sets of every residue run, anchored at each leg's images,
   gives ``d*`` per leg (:meth:`_FunnelContext.bound_screen`), and the
   weighted-A* bound decides the run.  Only runs with
   ``Σd* <= deadline < k·Σd*`` are searched: on an index-space view of
   the repaired chip (:class:`_IndexRouter`), the inherited
   :class:`~repro.fluidics.routing.Router` A* runs over cell indices
   with per-context adjacency and heuristic tables.  The multiplexed
   criterion always runs
   :class:`~repro.fluidics.concurrent_routing.ConcurrentRouter` on the
   view, since the bound does not cover its makespan.  No chip health,
   repair graph of cell objects, :class:`~repro.reconfig.remap.CellRemap`
   or scheduler is built per run.  The object-level path —
   ``plan_local_repair``, the ``CellRemap`` and the real scheduler or
   concurrent router on a chip copy — stays as the oracle
   :meth:`_FunnelContext._residue_run`, which
   ``tests/test_functional.py`` holds equal to the view on every
   matching-GOOD run of its grids.  On a shared 2-vCPU Xeon host (n=60,
   p=0.9) a residue run's A* costs ~0.05-0.14 ms for the routing
   criterion and ~0.9-1.1 ms for the multiplexed one; the oracle costs
   14-19x and ~4x more (``docs/functional_yield.md``).

Per-(structure, criterion) precomputation — site placement, anchor
masks, padded physical adjacency, the structure's reverse spare
adjacency, the edge bound ``k``, the fault-free baseline verdict — is
cached on the :class:`~repro.yieldsim.kernel.RepairStructure` via a weak
map, the ``geometry_for`` idiom of :mod:`repro.yieldsim.defects`.

The criterion runs inside the kernel's one sampling loop,
:func:`repro.yieldsim.kernel.model_successes`: it draws and classifies
each slice exactly as for a matching point, then hands the slice and its
verdicts to the criterion's ``evaluate_batch`` (which lands here), so a
functional point consumes the same RNG stream as the matching point.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.assays.library import assay_by_analyte
from repro.chip.biochip import Biochip
from repro.errors import (
    FluidicsError,
    ReconfigurationError,
    RoutingError,
    SimulationError,
)
from repro.fluidics.concurrent_routing import ConcurrentRouter, RouteRequest
from repro.fluidics.controller import ElectrodeController
from repro.fluidics.operations import Discard, Dispense, Operation, Transport
from repro.fluidics.routing import Router
from repro.fluidics.scheduler import Scheduler
from repro.functional.criteria import CriterionStats, SuccessCriterion
from repro.obs import profile as _profile
from repro.functional.sites import multiplexed_endpoints, routing_sites, site_legs
from repro.reconfig.local import RepairPlan, plan_local_repair
from repro.reconfig.remap import CellRemap
from repro.yieldsim.kernel import (
    GOOD,
    RepairStructure,
    _gather_or,
    _pack_runs,
    demanded_spares,
)

# Not called here: perfbench/harness.py wraps this binding by attribute.
from repro.yieldsim.kernel import classify_repairable  # noqa: F401

__all__ = ["evaluate_functional", "context_for"]

#: Per-structure cache of funnel contexts, keyed by criterion digest.
_CONTEXTS: "weakref.WeakKeyDictionary[RepairStructure, Dict[str, _FunnelContext]]" = (
    weakref.WeakKeyDictionary()
)


def _padded_neighbours(nbr_pos: np.ndarray, nbr_mask: np.ndarray) -> np.ndarray:
    """``nbr_pos`` with every padded slot sent to the sentinel row ``cells``."""
    return np.where(nbr_mask, nbr_pos, nbr_pos.shape[0]).astype(np.intp)


def _bfs_packed(
    allowed: np.ndarray,
    start: np.ndarray,
    target: np.ndarray,
    nbr_idx: np.ndarray,
    runs: int,
) -> np.ndarray:
    """:func:`_bfs_distances` over bit-sliced masks (see :func:`_pack_runs`).

    ``nbr_idx`` is the :func:`_padded_neighbours` table.  One level is a
    gather of every cell's neighbour rows, OR-reduced: eight runs move
    per byte.  Byte columns whose runs have all hit their target or
    stopped growing leave the working arrays, so the loop runs at most
    graph-diameter levels over ever fewer columns.
    """
    cells = allowed.shape[0]
    dist = np.full(runs, -1, dtype=np.int64)
    cols = np.arange(allowed.shape[1])
    # One extra all-zero row: the gather target of padded neighbour slots.
    reached = np.zeros((cells + 1, cols.size), dtype=np.uint8)
    np.bitwise_and(start, allowed, out=reached[:cells])
    trows = np.flatnonzero(target.any(axis=1))
    target = target[trows]

    def record(bits: np.ndarray, level: int) -> None:
        pos = np.flatnonzero(np.unpackbits(bits))
        dist[cols[pos >> 3] * 8 + (pos & 7)] = level

    done = np.bitwise_or.reduce(reached[trows] & target, axis=0)
    record(done, 0)
    growing = np.bitwise_or.reduce(reached[:cells], axis=0)
    level = 0
    while True:
        active = growing & ~done
        keep = np.flatnonzero(active)
        if not keep.size:
            return dist
        if keep.size < cols.size:
            cols, done = cols[keep], done[keep]
            reached, allowed = reached[:, keep], allowed[:, keep]
            target = target[:, keep]
        level += 1
        grow = _gather_or(reached, nbr_idx)
        grow &= allowed
        grow &= ~reached[:cells]
        reached[:cells] |= grow
        new = np.bitwise_or.reduce(grow[trows] & target, axis=0) & ~done
        if new.any():
            record(new, level)
            done |= new
        growing = np.bitwise_or.reduce(grow, axis=0)


def _bfs_distances(
    allowed: np.ndarray,
    start: np.ndarray,
    target: np.ndarray,
    nbr_pos: np.ndarray,
    nbr_mask: np.ndarray,
) -> np.ndarray:
    """Per-run BFS distance from a start set to a target set.

    All arguments are per-run boolean masks of shape ``(r, n_cells)``
    (``nbr_pos``/``nbr_mask`` are the shared padded adjacency).  Returns
    the per-run distance at which the BFS first touches the target set,
    or ``-1`` when it never does (including an empty start set).  BFS
    frontiers expand for all runs simultaneously on bit-sliced masks
    (:func:`_bfs_packed`).
    """
    return _bfs_packed(
        _pack_runs(allowed),
        _pack_runs(start),
        _pack_runs(target),
        _padded_neighbours(nbr_pos, nbr_mask),
        allowed.shape[0],
    )


def _leg_distances(
    allowed: np.ndarray,
    legs: Sequence[Tuple[np.ndarray, np.ndarray]],
    nbr_idx: np.ndarray,
    runs: int,
) -> np.ndarray:
    """``(len(legs), runs)`` BFS distances of every leg in one packed BFS.

    ``allowed`` is a packed ``(cells, ceil(runs / 8))`` mask
    (:func:`_pack_runs`) and ``legs`` holds each leg's packed
    ``(start, target)`` pair of the same shape.  The legs ride side by
    side as extra byte columns: ``allowed`` is tiled once per leg and one
    :func:`_bfs_packed` runs them all, so each level's Python cost is paid
    once, not once per leg.
    """
    width = allowed.shape[1]
    dist = _bfs_packed(
        np.tile(allowed, len(legs)),
        np.concatenate([start for start, _ in legs], axis=1),
        np.concatenate([target for _, target in legs], axis=1),
        nbr_idx,
        len(legs) * width * 8,
    )
    return dist.reshape(len(legs), width * 8)[:, :runs]


def _broadcast_legs(
    legs: Sequence[Tuple[np.ndarray, np.ndarray]], runs: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Packed per-leg ``(start, target)`` masks shared by ``runs`` runs."""
    return [
        (
            _pack_runs(np.broadcast_to(start, (runs, start.size))),
            _pack_runs(np.broadcast_to(target, (runs, target.size))),
        )
        for start, target in legs
    ]


def _index_matching(
    left: Sequence[int], adj: Sequence[Sequence[int]]
) -> Dict[int, int]:
    """:func:`~repro.reconfig.bipartite.hopcroft_karp` over int nodes.

    ``adj[u]`` lists the right neighbours of left node ``left[u]`` in edge
    order (distinct).  Runs the same phases in the same visiting order as
    ``hopcroft_karp(BipartiteGraph(left, rights, edges))`` on that graph,
    so it returns the same dict, in the same order — without building the
    graph or re-validating the matching.
    """
    size = len(left)
    inf = size + 1  # above every BFS layer; never reached by dist + 1
    pair_left: List[Optional[int]] = [None] * size
    pair_right: Dict[int, int] = {}
    dist = [0] * size

    def bfs() -> bool:
        queue: deque = deque()
        for u in range(size):
            if pair_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                owner = pair_right.get(v)
                if owner is None:
                    found_free = True
                elif dist[owner] == inf:
                    dist[owner] = dist[u] + 1
                    queue.append(owner)
        return found_free

    def dfs(u: int) -> bool:
        for v in adj[u]:
            owner = pair_right.get(v)
            if owner is None or (dist[owner] == dist[u] + 1 and dfs(owner)):
                pair_left[u] = v
                pair_right[v] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(size):
            if pair_left[u] is None:
                dfs(u)
    return {
        left[u]: v for u, v in enumerate(pair_left) if v is not None
    }


class _IndexRouter(Router):
    """One repaired run's logical array as a :class:`Router` over cell indices.

    Cells are positions in ``chip.coords``.  The view answers exactly what
    :class:`Router` answers under the run's :class:`CellRemap` — usability,
    pulled-back logical adjacency (in the same neighbour order) and the
    lattice-distance heuristic — so the inherited A* (and
    :class:`ConcurrentRouter` on top of it) explores the same states in the
    same order and returns the same routes, without rebuilding chip
    health, a repair graph or a remap per run.

    ``live`` is the per-run primary mask with dead cells cleared;
    ``image``/``inverse`` are the logical→physical and physical→logical
    index maps of the repair assignment.
    """

    def __init__(
        self,
        ctx: "_FunnelContext",
        live: List[bool],
        image: List[int],
        inverse: List[int],
    ):
        # Router.__init__ is skipped on purpose: every method that reads the
        # chip or the remap is overridden below.
        self._live = live
        self._image = image
        self._inverse = inverse
        self._phys_nbrs = ctx.phys_nbrs
        self._target_dist = ctx.target_dist
        self._memo: Dict[int, List[int]] = {}

    def usable(self, logical: int, blocked: Set[int]) -> bool:
        return self._live[logical] and logical not in blocked

    def neighbors(self, logical: int) -> List[int]:
        out = self._memo.get(logical)
        if out is None:
            live, image, inverse = self._live, self._image, self._inverse
            out = []
            for phys in self._phys_nbrs[image[logical]]:
                # The logical cell this physical neighbour serves, kept iff
                # it is a live primary whose image really is this cell.
                other = inverse[phys]
                if live[other] and image[other] == phys:
                    out.append(other)
            self._memo[logical] = out
        return out

    def distance(self, a: int, b: int) -> int:
        return self._target_dist[b][a]


class _FunnelContext:
    """Everything one (structure, criterion) pair precomputes once."""

    def __init__(self, struct: RepairStructure, criterion: SuccessCriterion):
        chip = struct.chip
        coords = chip.coords
        index = {c: i for i, c in enumerate(coords)}
        n = len(coords)
        # The chip and the matching adjacency, never the structure itself:
        # ``_CONTEXTS`` keys its weak map on the structure, and a strong
        # reference from the value would keep every structure alive.
        self.chip = chip
        self.adj = struct.adj
        #: the stage-4 image gather: needed slots, candidate spares and
        #: their reverse adjacency (:func:`demanded_spares`).
        self.needed_idx = struct.needed_idx
        self.cand = struct.cand
        self.rev_pos = struct.rev_pos
        self.rev_mask = struct.rev_mask
        self.criterion = criterion
        self.concurrent = criterion.name == "multiplexed"
        self.deadline = int(criterion.deadline)

        primary_cols = [index[cell.coord] for cell in chip.primaries()]
        self.primary_cols = np.asarray(primary_cols, dtype=np.int64)
        #: (n_cells,) mask of primary cells — the S3 route subgraph.
        self.primary_mask = np.zeros(n, dtype=bool)
        self.primary_mask[self.primary_cols] = True

        self.needed_coords: List[Hashable] = [
            coords[int(i)] for i in struct.needed_idx
        ]
        needed_set = set(self.needed_coords)
        #: (n_cells,) mask of primaries *outside* the needed set: faulty
        #: ones become routed-around dead cells in the residue's plan.
        self.unneeded_primary_mask = np.array(
            [
                chip[c].is_primary and c not in needed_set
                for c in coords
            ],
            dtype=bool,
        )

        # Padded physical adjacency over every cell (spares included).
        nbr_lists = [[index[x] for x in chip.neighbors(c)] for c in coords]
        width = max((len(lst) for lst in nbr_lists), default=0) or 1
        self.nbr_pos = np.zeros((n, width), dtype=np.int32)
        self.nbr_mask = np.zeros((n, width), dtype=bool)
        for i, lst in enumerate(nbr_lists):
            for d, j in enumerate(lst):
                self.nbr_pos[i, d] = j
                self.nbr_mask[i, d] = True
        #: the same adjacency for the bit-sliced BFS (:func:`_bfs_packed`).
        self.nbr_idx = _padded_neighbours(self.nbr_pos, self.nbr_mask)
        #: the same adjacency as tuples, for the residue's index view.
        self.phys_nbrs: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(lst) for lst in nbr_lists
        )
        #: (n_cells,) -1, or the needed-primary slot of a cell (its row in
        #: ``struct.adj``).
        self.needed_slot = np.full(n, -1, dtype=np.int64)
        self.needed_slot[struct.needed_idx] = np.arange(struct.needed_count)

        # -- criterion-specific program ----------------------------------
        if self.concurrent:
            sources, targets = multiplexed_endpoints(
                chip, len(criterion.assays)
            )
            self.legs: Tuple[Tuple[Hashable, Hashable], ...] = tuple(
                zip(sources, targets)
            )
            self.requests = tuple(
                RouteRequest(name=f"{analyte}:{i}", source=src, target=dst)
                for i, (analyte, (src, dst)) in enumerate(
                    zip(criterion.assays, self.legs)
                )
            )
            self.leg_contents: Tuple[Dict[str, float], ...] = ()
        else:
            sites = routing_sites(chip)
            self.legs = tuple(site_legs(sites))
            self.requests = ()
            assay = assay_by_analyte(criterion.assay)
            lo, hi = assay.reference_range
            self.leg_contents = (
                {assay.analyte: (lo + hi) / 2.0},
                dict(assay.reagent_contents),
                {},
            )

        # Distinct functional sites; all alive => S3 eligibility.
        site_coords = sorted({c for leg in self.legs for c in leg})
        self.site_cols = np.asarray(
            [index[c] for c in site_coords], dtype=np.int64
        )
        #: per-leg (src one-hot, dst one-hot) masks for the S3 BFS.
        self.leg_nodes: List[Tuple[np.ndarray, np.ndarray]] = []
        #: per-leg (src anchors, dst anchors) masks for the S4 bound.
        self.leg_anchors: List[Tuple[np.ndarray, np.ndarray]] = []
        for src, dst in self.legs:
            pair_nodes = []
            pair_anchors = []
            for endpoint in (src, dst):
                node = np.zeros(n, dtype=bool)
                node[index[endpoint]] = True
                pair_nodes.append(node)
                anchor = node.copy()
                if endpoint in needed_set:
                    # The matching may remap a faulty needed endpoint to
                    # any adjacent spare; an unneeded endpoint always
                    # serves itself (dead when faulty).
                    for spare in chip.adjacent_spares(endpoint):
                        anchor[index[spare.coord]] = True
                pair_anchors.append(anchor)
            self.leg_nodes.append((pair_nodes[0], pair_nodes[1]))
            self.leg_anchors.append((pair_anchors[0], pair_anchors[1]))

        # -- the residue's index-space program -----------------------------
        self.leg_idx = tuple((index[src], index[dst]) for src, dst in self.legs)
        self.index_requests = tuple(
            RouteRequest(name=r.name, source=index[r.source], target=index[r.target])
            for r in self.requests
        )
        #: lattice distance from every cell to each leg target (A*'s
        #: heuristic, by the one rule :meth:`Router.distance`).
        lattice = Router(chip)
        self.target_dist: Dict[int, List[int]] = {
            index[dst]: [lattice.distance(c, dst) for c in coords]
            for _, dst in self.legs
        }
        self._primary_list: List[bool] = self.primary_mask.tolist()
        self._identity: List[int] = list(range(n))

        # -- the weighted-A* bound (module docstring) ----------------------
        # ``owners[c]``: the primaries cell ``c`` may serve as image — a
        # primary itself, and a needed primary's ``struct.adj`` spares.
        owners: List[List[int]] = [[] for _ in range(n)]
        for p in primary_cols:
            owners[p].append(p)
        for p, spares in zip(struct.needed_idx.tolist(), struct.adj):
            for spare in spares:
                owners[spare].append(p)
        pairs = {
            (p, q)
            for a, nbrs in enumerate(nbr_lists)
            for b in nbrs
            for p in owners[a]
            for q in owners[b]
            if p != q
        }
        #: the largest lattice distance a logical edge of any repaired run
        #: can span (at least 1: a metric-free lattice gets ``h = 0``,
        #: plain uniform-cost search, which is exact).
        self.k = max(
            [1] + [lattice.distance(coords[p], coords[q]) for p, q in pairs]
        )

        # -- fault-free baseline (the S2 verdict) -------------------------
        self.baseline_ok = self._index_run(np.ones(n, dtype=bool))

        #: scratch chip for the object-level oracle (health rewritten per run)
        self._work_chip: Optional[Biochip] = None

    # -- residue: index-space evaluator ------------------------------------
    def _index_assignment(self, row: np.ndarray) -> Optional[Dict[int, int]]:
        """One run's repair assignment, faulty needed primary → spare.

        The same Hopcroft–Karp matching ``plan_local_repair`` computes
        (:func:`_index_matching`) — left side the faulty needed primaries
        in ``needed_idx`` order, edges their alive adjacent spares in
        ``struct.adj`` order.  ``None`` when the matching leaves a needed
        primary unrepaired.
        """
        faulty = np.flatnonzero(~row)
        slots = self.needed_slot[faulty]
        left: List[int] = []
        spares: List[List[int]] = []
        adj = self.adj
        for cell, slot in zip(faulty.tolist(), slots.tolist()):
            if slot >= 0:
                left.append(cell)
                spares.append([s for s in adj[slot] if row[s]])
        matching = _index_matching(left, spares)
        return matching if len(matching) == len(left) else None

    def _index_view(self, row: np.ndarray) -> Optional[_IndexRouter]:
        """One matching-GOOD run's repaired array as an :class:`_IndexRouter`.

        The repair remap is :meth:`_index_assignment`'s, and faulty
        primaries outside the needed set become dead cells.  ``None`` when
        the matching leaves a needed primary unrepaired.
        """
        matching = self._index_assignment(row)
        if matching is None:
            return None
        live = self._primary_list[:]
        for cell in np.flatnonzero(self.unneeded_primary_mask & ~row).tolist():
            live[cell] = False
        image = self._identity[:]
        inverse = self._identity[:]
        for primary, spare in matching.items():
            image[primary] = spare
            inverse[spare] = primary
        return _IndexRouter(self, live, image, inverse)

    def _index_run(self, row: np.ndarray) -> bool:
        """Decide one matching-GOOD run on its :meth:`_index_view`.

        The verdict equals :meth:`_residue_run` (the oracle): the view
        holds the oracle's repair remap and the same A* searches run over
        it.
        """
        view = self._index_view(row)
        if view is None:  # unreachable: residue rows are matching-GOOD
            return False
        try:
            if self.concurrent:
                plan = ConcurrentRouter(self.chip, router=view).plan(
                    list(self.index_requests)
                )
                return plan.makespan <= self.deadline
            # Each leg is Dispense -> Transport -> Discard, so at most one
            # droplet is ever on the array: the scheduler's spacing halo
            # is empty, nothing is occupied, and the controller's checks
            # on ``follow_path`` (physical adjacency, healthy images) hold
            # for any view route by construction.  Dispense's usability
            # check on the source is route's own source check, so the
            # schedule's total_moves is exactly the sum of route lengths.
            moves = 0
            for src, dst in self.leg_idx:
                moves += len(view.route(src, dst)) - 1
                if moves > self.deadline:
                    return False
            return True
        except RoutingError:
            return False

    # -- oracle: the definitional evaluator --------------------------------
    def _evaluate_run(self, chip, remap) -> bool:
        """Ground truth for one fault map: drive the real fluidics stack."""
        try:
            if self.concurrent:
                plan = ConcurrentRouter(chip, remap).plan(list(self.requests))
                return plan.makespan <= self.deadline
            controller = ElectrodeController(chip, remap=remap)
            ops: List[Operation] = []
            for i, ((src, dst), contents) in enumerate(
                zip(self.legs, self.leg_contents)
            ):
                handle = f"leg{i}"
                ops.append(Dispense(handle, at=src, contents=dict(contents)))
                ops.append(Transport(handle, to=dst))
                ops.append(Discard(handle))
            schedule = Scheduler(controller).run(ops)
            return schedule.total_moves <= self.deadline
        except (FluidicsError, ReconfigurationError):
            return False

    def _residue_run(self, row: np.ndarray) -> bool:
        """Object-level oracle for one matching-GOOD run.

        Rebuilds chip health, runs ``plan_local_repair``, installs the
        :class:`CellRemap` and drives the real scheduler or concurrent
        router.  The funnel decides its residue with :meth:`_index_run`;
        the tests hold the two equal.
        """
        if self._work_chip is None:
            self._work_chip = self.chip.copy()
        chip = self._work_chip
        coords = chip.coords
        chip.clear_faults()
        faulty_cols = np.flatnonzero(~row)
        chip.apply_fault_map(coords[int(j)] for j in faulty_cols)
        plan = plan_local_repair(chip, self.needed_coords)
        if not plan.complete:  # unreachable: residue rows are matching-GOOD
            return False
        extras = tuple(
            coords[int(j)]
            for j in faulty_cols
            if self.unneeded_primary_mask[j]
        )
        remap = CellRemap(
            chip, RepairPlan(dict(plan.assignment), plan.unrepaired + extras)
        )
        return self._evaluate_run(chip, remap)

    # -- the funnel --------------------------------------------------------
    def route_images(self, alive: np.ndarray) -> np.ndarray:
        """Per-run mask of the cells a logical route's images can use.

        Alive primaries map to themselves; a faulty needed primary maps to
        an alive adjacent spare.  So every image is an alive primary or an
        alive spare adjacent to a faulty needed primary of the run — the
        stage-4 BFS subgraph.
        """
        images = alive & self.primary_mask
        if self.cand.size:
            images[:, self.cand] = alive[:, self.cand] & demanded_spares(
                self.rev_pos, self.rev_mask, ~alive[:, self.needed_idx]
            )
        return images

    def route_clear(self, alive: np.ndarray) -> np.ndarray:
        """Stage 3 on runs with every site alive: exact success.

        Every leg connects through alive primaries, and ``k`` times the
        total alive-primary distance fits the deadline.  Sequential legs
        only.
        """
        runs = alive.shape[0]
        dist = _leg_distances(
            _pack_runs(alive & self.primary_mask),
            _broadcast_legs(self.leg_nodes, runs),
            self.nbr_idx,
            runs,
        )
        total = np.maximum(dist, 0).sum(axis=0)
        return (dist >= 0).all(axis=0) & (self.k * total <= self.deadline)

    def unreachable(self, alive: np.ndarray) -> np.ndarray:
        """Stage 4 on matching-GOOD runs: exact failure.

        Some leg's anchors cannot reach each other through
        :meth:`route_images`, or the per-leg BFS lower bounds already
        exceed the deadline (sum for sequential legs, max for the
        concurrent makespan).
        """
        runs = alive.shape[0]
        dist = _leg_distances(
            _pack_runs(self.route_images(alive)),
            _broadcast_legs(self.leg_anchors, runs),
            self.nbr_idx,
            runs,
        )
        legs = np.maximum(dist, 0)
        # Concurrent makespan >= the slowest droplet's moves.
        bound = legs.max(axis=0) if self.concurrent else legs.sum(axis=0)
        return (dist < 0).any(axis=0) | (bound > self.deadline)

    def bound_screen(
        self, alive: np.ndarray, matchings: Sequence[Dict[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stage 5's weighted-A* screen: per-run ``(fail, success)`` masks.

        ``matchings`` holds each run's :meth:`_index_assignment`.  One
        packed BFS over each run's exact image set (alive primaries plus
        assigned spares), from ``image[src]`` to ``image[dst]``, gives
        every leg's shortest logical length ``d*``: a run fails if some
        leg is disconnected or ``Σd* > deadline``, and succeeds if
        ``k·Σd* <= deadline`` (module docstring).  Runs in neither mask
        need A*.  Sequential legs only.
        """
        runs, cells = alive.shape
        images = alive & self.primary_mask
        for i, matching in enumerate(matchings):
            images[i, list(matching.values())] = True
        at = np.arange(runs)
        legs = []
        for leg in self.leg_idx:
            anchors = []
            for endpoint in leg:
                mask = np.zeros((runs, cells), dtype=bool)
                mask[at, [m.get(endpoint, endpoint) for m in matchings]] = True
                anchors.append(_pack_runs(mask))
            legs.append((anchors[0], anchors[1]))
        dist = _leg_distances(_pack_runs(images), legs, self.nbr_idx, runs)
        total = np.maximum(dist, 0).sum(axis=0)
        fail = (dist < 0).any(axis=0) | (total > self.deadline)
        return fail, ~fail & (self.k * total <= self.deadline)

    def evaluate(
        self, alive: np.ndarray, verdict: np.ndarray
    ) -> Tuple[np.ndarray, CriterionStats]:
        n_runs = alive.shape[0]
        stats = CriterionStats(runs=n_runs)
        ok = np.zeros(n_runs, dtype=bool)

        with _profile.phase("funnel_screen"):
            # 1. matching failed => no remap exists => criterion fails.
            good = verdict == GOOD
            stats.matching_fail = int(n_runs - good.sum())

            # 2. spare-only faults => identity remap => baseline verdict.
            faulty_primary = (~alive[:, self.primary_cols]).any(axis=1)
            spare_only = good & ~faulty_primary
            stats.spare_only = int(spare_only.sum())
            ok[spare_only] = self.baseline_ok
            undecided = good & faulty_primary

            # 3. alive-primary route screen (sequential legs only).
            if not self.concurrent and undecided.any():
                rows = np.flatnonzero(
                    undecided & alive[:, self.site_cols].all(axis=1)
                )
                if rows.size:
                    cleared = rows[self.route_clear(alive[rows])]
                    ok[cleared] = True
                    undecided[cleared] = False
                    stats.route_clear = int(cleared.size)

            # 4. reachability / distance lower bound over route images.
            if undecided.any():
                rows = np.flatnonzero(undecided)
                failed = rows[self.unreachable(alive[rows])]
                undecided[failed] = False
                stats.unreachable = int(failed.size)

        # 5. residue: the weighted-A* bound on each run's repair assignment
        # (sequential legs), then the real router on a view for the rest.
        with _profile.phase("funnel_residue"):
            rows = np.flatnonzero(undecided)
            stats.residue = int(rows.size)
            if self.concurrent:
                got = np.array(
                    [self._index_run(alive[r]) for r in rows], dtype=bool
                )
            else:
                # Residue rows are matching-GOOD: every assignment exists.
                fail, got = self.bound_screen(
                    alive[rows], [self._index_assignment(alive[r]) for r in rows]
                )
                for i in np.flatnonzero(~(fail | got)):
                    got[i] = self._index_run(alive[rows[i]])
            ok[rows] = got
            stats.residue_ok = int(got.sum())
        return ok, stats


def context_for(
    struct: RepairStructure, criterion: SuccessCriterion
) -> _FunnelContext:
    """The cached funnel context of one (structure, criterion) pair."""
    per_struct = _CONTEXTS.get(struct)
    if per_struct is None:
        per_struct = {}
        _CONTEXTS[struct] = per_struct
    key = criterion.digest()
    ctx = per_struct.get(key)
    if ctx is None:
        ctx = _FunnelContext(struct, criterion)
        per_struct[key] = ctx
    return ctx


def evaluate_functional(
    struct: RepairStructure,
    criterion: SuccessCriterion,
    alive: np.ndarray,
    verdict: np.ndarray,
) -> Tuple[np.ndarray, CriterionStats]:
    """Funnel evaluation of one survival batch under one criterion."""
    if alive.ndim != 2 or alive.shape[1] != struct.n_cells:
        raise SimulationError(
            f"survival matrix must be (runs, {struct.n_cells}), got {alive.shape}"
        )
    return context_for(struct, criterion).evaluate(alive, verdict)
