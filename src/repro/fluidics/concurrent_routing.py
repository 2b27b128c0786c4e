"""Concurrent droplet routing: time-expanded prioritized planning.

Digital microfluidics' headline feature is *concurrent* execution of
several bioassays on one array — which needs several droplets moving at
once without accidental coalescence.  The constraints, at lockstep time
granularity, are the standard DMFB routing rules:

* **static**: two droplets must never occupy the same or adjacent cells at
  the same time step;
* **dynamic**: a droplet may not move onto a cell that was occupied by or
  adjacent to another droplet at the *previous* step either (the trailing
  droplet would merge with the leaving one's meniscus).

:class:`ConcurrentRouter` plans with prioritized A* in time-expanded space
(waiting in place is a legal move): droplets are planned one at a time
against the reservations of those already planned, retrying with rotated
priority orders when a later droplet is boxed in.  This is the classic
prioritized-planning heuristic — complete enough for biochip-scale
instances while staying simple and auditable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.chip.biochip import Biochip
from repro.errors import RoutingError
from repro.fluidics.routing import Router
from repro.reconfig.remap import CellRemap

__all__ = ["RouteRequest", "ConcurrentPlan", "ConcurrentRouter"]


@dataclass(frozen=True)
class RouteRequest:
    """One droplet's routing goal."""

    name: str
    source: Hashable
    target: Hashable


@dataclass(frozen=True)
class ConcurrentPlan:
    """Lockstep trajectories for all requested droplets.

    ``trajectories[name][t]`` is the droplet's (logical) cell at step t;
    all trajectories share the same length (``makespan + 1``), droplets
    that arrive early wait at their targets.
    """

    trajectories: Dict[str, Tuple[Hashable, ...]]

    @property
    def makespan(self) -> int:
        any_traj = next(iter(self.trajectories.values()))
        return len(any_traj) - 1

    def total_moves(self) -> int:
        moves = 0
        for traj in self.trajectories.values():
            moves += sum(1 for a, b in zip(traj, traj[1:]) if a != b)
        return moves

    def position(self, name: str, t: int) -> Hashable:
        traj = self.trajectories[name]
        return traj[min(t, len(traj) - 1)]


class _CellMoves:
    """One :meth:`ConcurrentRouter.plan` call's memo of the router's answers.

    ``neighbors[cell]`` is ``router.neighbors(cell)``, or ``None`` when the
    cell is unusable; ``moves[cell]`` lists a usable cell's moves in
    expansion order — wait, then the router's neighbours — each paired with
    its own ``neighbors`` entry.  The chip cannot change during one plan,
    so every answer is asked of the router once.
    """

    __slots__ = ("router", "neighbors", "moves")

    def __init__(self, router: Router):
        self.router = router
        self.neighbors: Dict[Hashable, Optional[List[Hashable]]] = {}
        self.moves: Dict[
            Hashable, List[Tuple[Hashable, Optional[List[Hashable]]]]
        ] = {}

    def neighbors_of(self, cell: Hashable) -> Optional[List[Hashable]]:
        try:
            return self.neighbors[cell]
        except KeyError:
            router = self.router
            out = router.neighbors(cell) if router.usable(cell, set()) else None
            self.neighbors[cell] = out
            return out

    def moves_of(
        self, cell: Hashable
    ) -> List[Tuple[Hashable, Optional[List[Hashable]]]]:
        out = self.moves.get(cell)
        if out is None:
            known, neighbors_of = self.neighbors, self.neighbors_of
            out = [
                (nxt, known[nxt] if nxt in known else neighbors_of(nxt))
                for nxt in [cell, *known[cell]]
            ]
            self.moves[cell] = out
        return out


class ConcurrentRouter:
    """Prioritized time-expanded planner over one chip.

    ``router`` supplies the cell semantics (usability, adjacency and the
    A* heuristic); by default a :class:`Router` over ``chip`` and
    ``remap``.  Any :class:`Router` subclass with the same contract may be
    passed instead, e.g. an index-space view of one repaired chip.
    """

    def __init__(
        self,
        chip: Biochip,
        remap: Optional[CellRemap] = None,
        *,
        router: Optional[Router] = None,
    ):
        self.router = router if router is not None else Router(chip, remap)

    # -- public API -----------------------------------------------------------
    def plan(
        self,
        requests: Sequence[RouteRequest],
        horizon: Optional[int] = None,
    ) -> ConcurrentPlan:
        """Plan all requests; raises :class:`RoutingError` if impossible.

        Tries every rotation of the priority order before giving up, which
        resolves the common case where one droplet must yield a corridor
        to another.
        """
        if not requests:
            raise RoutingError("no route requests")
        names = [r.name for r in requests]
        if len(set(names)) != len(names):
            raise RoutingError("duplicate droplet names in requests")
        self._validate_endpoints(requests)
        if horizon is None:
            total = sum(
                self.router.distance(r.source, r.target) for r in requests
            )
            horizon = 2 * total + 4 * len(requests) + 8

        last_error: Optional[RoutingError] = None
        cells = _CellMoves(self.router)
        for rotation in range(len(requests)):
            order = list(requests[rotation:]) + list(requests[:rotation])
            try:
                return self._plan_in_order(order, horizon, cells)
            except RoutingError as exc:
                last_error = exc
        raise RoutingError(
            f"no conflict-free schedule within horizon {horizon}: {last_error}"
        )

    # -- internals --------------------------------------------------------------
    def _validate_endpoints(self, requests: Sequence[RouteRequest]) -> None:
        for r in requests:
            if not self.router.usable(r.source, set()):
                raise RoutingError(f"{r.name}: source {r.source} unusable")
            if not self.router.usable(r.target, set()):
                raise RoutingError(f"{r.name}: target {r.target} unusable")
        # Pairwise endpoint spacing: droplets start/park adjacent -> no plan.
        for a, b in itertools.combinations(requests, 2):
            if self._conflicts(a.source, b.source):
                raise RoutingError(
                    f"sources of {a.name} and {b.name} violate spacing"
                )
            if self._conflicts(a.target, b.target):
                raise RoutingError(
                    f"targets of {a.name} and {b.name} violate spacing"
                )

    def _conflicts(self, a: Hashable, b: Hashable) -> bool:
        return a == b or b in self.router.neighbors(a) or a in self.router.neighbors(b)

    def _plan_in_order(
        self,
        order: Sequence[RouteRequest],
        horizon: int,
        cells: _CellMoves,
    ) -> ConcurrentPlan:
        planned: Dict[str, List[Hashable]] = {}
        for request in order:
            trajectory = self._plan_single(request, planned, horizon, cells)
            planned[request.name] = trajectory
        # Pad everything to the common makespan.
        makespan = max(len(t) for t in planned.values())
        trajectories = {
            name: tuple(traj + [traj[-1]] * (makespan - len(traj)))
            for name, traj in planned.items()
        }
        return ConcurrentPlan(trajectories=trajectories)

    def _plan_single(
        self,
        request: RouteRequest,
        planned: Dict[str, List[Hashable]],
        horizon: int,
        cells: _CellMoves,
    ) -> List[Hashable]:
        """A* over (cell, time); waiting costs one step like moving.

        A droplet may occupy ``cell`` at step ``t`` iff the cell is usable
        and does not conflict (:meth:`_conflicts`) with any already-planned
        droplet's cell at steps ``t - 1``, ``t`` or ``t + 1``: the dynamic
        rule is symmetric, this droplet must neither trail into another's
        meniscus nor be trailed into.  The planned trajectories are fixed
        for the whole search, so each window's reservation is built once:
        the cells occupied in it and the union of their halos (a halo is a
        cell plus its neighbours).  ``cell`` conflicts with an occupant
        ``o`` iff ``cell`` lies in ``o``'s halo or ``o`` is one of
        ``cell``'s neighbours — both sides are tested, the router's
        adjacency need not be symmetric.  Past the longest trajectory every
        droplet is parked, so the window key is clamped there.
        """
        trajs = list(planned.values())
        high = max((len(traj) for traj in trajs), default=0)
        # occupied[s]: the planned droplets' cells at step s (s == high
        # repeats the parked cells); halos[s]: those cells and their
        # neighbours.
        neighbors_of = cells.neighbors_of
        occupied = [
            {traj[min(s, len(traj) - 1)] for traj in trajs}
            for s in range(high + 1)
        ]
        halos = []
        for step_cells in occupied:
            halo = set(step_cells)
            for other in step_cells:
                halo.update(neighbors_of(other))
            halos.append(halo)
        # Reservation of the window t-1..t+1, for t = 0..high.
        window_occupied = [
            set().union(*occupied[max(t - 1, 0) : t + 2]) for t in range(high + 1)
        ]
        window_halo = [
            set().union(*halos[max(t - 1, 0) : t + 2]) for t in range(high + 1)
        ]

        source, target = request.source, request.target
        source_nbrs = neighbors_of(source)
        if (
            source_nbrs is None
            or source in window_halo[0]
            or not window_occupied[0].isdisjoint(source_nbrs)
        ):
            raise RoutingError(
                f"{request.name}: source {request.source} conflicts with "
                "an already-planned droplet"
            )
        # Once arrived the droplet parks forever, so it may stop at the
        # target only after the last step whose occupants conflict with it.
        target_nbrs = neighbors_of(target)
        parked_from = 0
        for step in range(high, -1, -1):
            if target in halos[step] or not occupied[step].isdisjoint(target_nbrs):
                parked_from = step + 1
                break

        moves, moves_of = cells.moves, cells.moves_of
        distance = self.router.distance
        push, pop = heapq.heappush, heapq.heappop
        counter = itertools.count()
        start = (source, 0)
        open_heap = [(distance(source, target), next(counter), start)]
        # Every move costs one step, so a state's cost is its time and the
        # first discovery of a state is its best: ``came`` doubles as the
        # seen set.
        came: Dict[Tuple[Hashable, int], Tuple[Hashable, int]] = {}
        while open_heap:
            state = pop(open_heap)[2]
            cell, t = state
            if cell == target and t >= parked_from:
                return self._reconstruct(came, state)
            if t >= horizon:
                continue
            nt = t + 1
            key = nt if nt < high else high
            reserved, reserved_halo = window_occupied[key], window_halo[key]
            for nxt, nxt_nbrs in moves.get(cell) or moves_of(cell):
                if (
                    nxt_nbrs is None
                    or nxt in reserved_halo
                    or not reserved.isdisjoint(nxt_nbrs)
                ):
                    continue
                nstate = (nxt, nt)
                if nstate in came:
                    continue
                came[nstate] = state
                push(open_heap, (nt + distance(nxt, target), next(counter), nstate))
        raise RoutingError(
            f"{request.name}: no route {request.source} -> {request.target} "
            f"within horizon {horizon}"
        )

    @staticmethod
    def _reconstruct(
        came: Dict[Tuple[Hashable, int], Tuple[Hashable, int]],
        state: Tuple[Hashable, int],
    ) -> List[Hashable]:
        path = [state[0]]
        while state in came:
            state = came[state]
            path.append(state[0])
        path.reverse()
        return path
