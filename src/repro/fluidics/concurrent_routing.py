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
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

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
        for rotation in range(len(requests)):
            order = list(requests[rotation:]) + list(requests[:rotation])
            try:
                return self._plan_in_order(order, horizon)
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
        self, order: Sequence[RouteRequest], horizon: int
    ) -> ConcurrentPlan:
        planned: Dict[str, List[Hashable]] = {}
        for request in order:
            trajectory = self._plan_single(request, planned, horizon)
            planned[request.name] = trajectory
        # Pad everything to the common makespan.
        makespan = max(len(t) for t in planned.values())
        trajectories = {
            name: tuple(traj + [traj[-1]] * (makespan - len(traj)))
            for name, traj in planned.items()
        }
        return ConcurrentPlan(trajectories=trajectories)

    def _others_at(
        self, planned: Dict[str, List[Hashable]], t: int
    ) -> List[Hashable]:
        return [
            traj[min(t, len(traj) - 1)] for traj in planned.values()
        ]

    def _legal(
        self,
        cell: Hashable,
        t: int,
        planned: Dict[str, List[Hashable]],
    ) -> bool:
        """May a droplet occupy ``cell`` at step ``t``?  (static+dynamic)

        The dynamic constraint is symmetric: this droplet at ``t`` must not
        conflict with an already-planned droplet's cell at ``t - 1`` (we
        would trail into its meniscus) *nor* at ``t + 1`` (it would trail
        into ours), so all three time slices are checked.
        """
        if not self.router.usable(cell, set()):
            return False
        for step in (t - 1, t, t + 1):
            if step < 0:
                continue
            for other in self._others_at(planned, step):
                if self._conflicts(cell, other):
                    return False
        return True

    def _plan_single(
        self,
        request: RouteRequest,
        planned: Dict[str, List[Hashable]],
        horizon: int,
    ) -> List[Hashable]:
        """A* over (cell, time); waiting costs one step like moving."""
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
        g: Dict[Tuple[Hashable, int], int] = {start: 0}
        came: Dict[Tuple[Hashable, int], Tuple[Hashable, int]] = {}
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

    def _parked_ok(
        self, cell: Hashable, t: int, planned: Dict[str, List[Hashable]]
    ) -> bool:
        """Once arrived, the droplet parks forever: verify no future
        conflict with droplets still moving."""
        high = max((len(traj) for traj in planned.values()), default=0)
        for step in range(t, high + 1):
            for other in self._others_at(planned, step):
                if self._conflicts(cell, other):
                    return False
        return True

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
