"""Droplet routing: A* paths over the usable cells of a (possibly faulty) array.

The router plans in *logical* coordinates and consults the controller's
remap + the chip's health to decide which cells are usable.  Faulty cells,
explicitly blocked cells (other droplets plus their spacing halo) are
avoided.  Routes come from A* with the lattice distance as heuristic.

Without a remap every move changes the lattice distance by at most one,
so the heuristic never overestimates and the routes are shortest paths.
Under a repair remap that no longer holds: a pulled-back logical edge can
join two logical cells at lattice distance 2 (one of them served by a
spare), the heuristic can overestimate, and A* may return a route longer
than the shortest one (by one move in every measured case).  The
functional criteria score the routes this router plans, so the search
stays as it is.  Each cell is expanded at most once, so when every
logical edge spans at most ``k`` lattice steps this is weighted A* with
weight ``k``, and a route is at most ``k`` times the shortest:
:mod:`repro.functional.funnel` decides most routing runs from that bound
and a BFS, without calling :meth:`Router.route`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.chip.biochip import Biochip
from repro.errors import ReconfigurationError, RoutingError
from repro.reconfig.remap import CellRemap

__all__ = ["Router"]


class Router:
    """A* route planner over the logical array.

    Parameters
    ----------
    chip:
        Physical array with fault state.
    remap:
        Optional repair remap; routing then happens on logical cells whose
        physical images are fault-free.
    """

    def __init__(self, chip: Biochip, remap: Optional[CellRemap] = None):
        self.chip = chip
        self.remap = remap
        # Logical cell universe: all chip coordinates that are not spares
        # serving a repair (those belong to their logical primary), plus the
        # identity for everything else.  In practice: logical cells are the
        # chip's primary coordinates when a remap exists, else all cells.
        if remap is None:
            self._logical_cells: Set[Hashable] = set(chip.coords)
        else:
            self._logical_cells = {c.coord for c in chip.primaries()}

    def usable(self, logical: Hashable, blocked: Set[Hashable]) -> bool:
        """Can a droplet sit on this logical cell right now?"""
        if logical in blocked or logical not in self._logical_cells:
            return False
        if self.remap is not None:
            if logical in self.remap.dead_cells:
                return False
            phys = self.remap.physical(logical)
        else:
            phys = logical
        return self.chip[phys].is_good

    def neighbors(self, logical: Hashable) -> List[Hashable]:
        """Logical neighbors: physical adjacency pulled back through the remap.

        Microfluidic locality acts on physical cells; two logical cells are
        logically adjacent iff their current physical images are adjacent.
        """
        if self.remap is None:
            return list(self.chip.neighbors(logical))
        phys = self.remap.physical(logical)
        out: List[Hashable] = []
        for neighbor_phys in self.chip.neighbors(phys):
            logical_neighbor = self.remap.logical(neighbor_phys)
            if (
                logical_neighbor not in self._logical_cells
                or logical_neighbor in self.remap.dead_cells
            ):
                continue
            # Pull-back must be consistent: the logical neighbor's current
            # physical image is this very cell.  This excludes a faulty
            # primary's own coordinate (its image moved to a spare) while
            # keeping the spare that now serves it.  A faulty primary
            # outside the plan's needed set was never remapped, so it has
            # no healthy image and ``physical`` refuses it: skip it, as
            # ``usable`` would (it rejects every faulty cell).
            try:
                image = self.remap.physical(logical_neighbor)
            except ReconfigurationError:
                continue
            if image == neighbor_phys:
                out.append(logical_neighbor)
        return out

    # -- search -----------------------------------------------------------------
    def route(
        self,
        src: Hashable,
        dst: Hashable,
        blocked: Iterable[Hashable] = (),
    ) -> List[Hashable]:
        """A* usable logical path from ``src`` to ``dst`` (inclusive).

        Shortest without a remap; under a remap possibly a little longer
        (see the module docstring).

        ``blocked`` cells are treated as unusable (other droplets and their
        spacing halos).  Raises :class:`RoutingError` when no path exists —
        e.g. when faults disconnect the array.
        """
        blocked_set = set(blocked)
        blocked_set.discard(src)
        if not self.usable(src, set()):
            raise RoutingError(f"source cell {src} is not usable")
        if not self.usable(dst, blocked_set):
            raise RoutingError(f"destination cell {dst} is not usable")
        if src == dst:
            return [src]

        neighbors, usable, heuristic = self.neighbors, self.usable, self.distance
        push, pop = heapq.heappush, heapq.heappop
        counter = itertools.count()
        open_heap = [(heuristic(src, dst), next(counter), src)]
        g_score: Dict[Hashable, int] = {src: 0}
        came_from: Dict[Hashable, Hashable] = {}
        closed: Set[Hashable] = set()
        while open_heap:
            current = pop(open_heap)[2]
            if current == dst:
                return self._reconstruct(came_from, current)
            if current in closed:
                continue
            closed.add(current)
            tentative = g_score[current] + 1
            for neighbor in neighbors(current):
                if neighbor in closed:
                    continue
                known = g_score.get(neighbor)
                if known is None:
                    # First sight: an unusable cell is closed for good (a
                    # known one was usable when it was first pushed).
                    if not usable(neighbor, blocked_set):
                        closed.add(neighbor)
                        continue
                elif tentative >= known:
                    continue
                g_score[neighbor] = tentative
                came_from[neighbor] = current
                push(
                    open_heap,
                    (tentative + heuristic(neighbor, dst), next(counter), neighbor),
                )
        raise RoutingError(f"no usable route from {src} to {dst}")

    def spacing_halo(self, droplet_cells: Iterable[Hashable]) -> Set[Hashable]:
        """Cells blocked by parked droplets: their cells plus all neighbors.

        Keeping routes out of the halo preserves the static spacing
        constraint without time-expanded search: a moving droplet never
        becomes adjacent to a parked one.
        """
        halo: Set[Hashable] = set()
        for cell in droplet_cells:
            halo.add(cell)
            halo.update(self.neighbors(cell))
        return halo

    # -- helpers -----------------------------------------------------------------
    def distance(self, a: Hashable, b: Hashable) -> int:
        """Lattice distance between two logical cells: the A* heuristic.

        A lower bound on the moves left on an unremapped array.  Under a
        remap a logical edge may join cells at lattice distance 2, so this
        can overestimate and A* routes are not guaranteed shortest (see the
        module docstring).  Coordinates without a metric get 0 (plain
        uniform-cost search).
        """
        if hasattr(a, "distance"):
            return a.distance(b)
        return 0

    @staticmethod
    def _reconstruct(came_from: Dict[Hashable, Hashable], current: Hashable) -> List[Hashable]:
        path = [current]
        while current in came_from:
            current = came_from[current]
            path.append(current)
        path.reverse()
        return path
