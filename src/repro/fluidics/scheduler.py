"""Protocol scheduler: executes operation sequences on a controller.

The scheduler binds droplet handles to live :class:`Droplet` objects, plans
routes with the :class:`Router` (avoiding faults and other droplets' spacing
halos), drives the :class:`ElectrodeController`, and records a timeline the
assay layer and the tests can inspect.

Mixing needs a loop of free cells around the mix site; the scheduler finds
one automatically (a triangle of mutually-adjacent cells on the hex array,
or a square loop on a square array).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError, SchedulingError
from repro.fluidics.controller import ElectrodeController
from repro.fluidics.droplet import Droplet
from repro.fluidics.operations import (
    Detect,
    Discard,
    Dispense,
    Mix,
    Operation,
    Split,
    Transport,
)
from repro.fluidics.routing import Router

__all__ = ["TimelineEvent", "Schedule", "Scheduler"]


@dataclass(frozen=True)
class TimelineEvent:
    """One executed operation with its time span and route length."""

    op: str
    droplet: str
    start: float
    end: float
    moves: int = 0
    detail: str = ""


@dataclass
class Schedule:
    """Execution record returned by :meth:`Scheduler.run`."""

    events: List[TimelineEvent] = field(default_factory=list)
    total_time: float = 0.0
    total_moves: int = 0


class Scheduler:
    """Sequentially executes a protocol on one controller.

    Sequential execution (one operation at a time) is the simplest policy
    that is always safe under the static spacing constraint; concurrent
    bioassays are expressed by interleaving their operations, which the
    multiplexed assay runner does.
    """

    def __init__(self, controller: ElectrodeController):
        self.controller = controller
        self.router = Router(controller.chip, controller.remap)
        self._bound: Dict[str, Droplet] = {}
        self._moves = 0

    def droplet(self, handle: str) -> Droplet:
        """The live droplet bound to ``handle``."""
        try:
            return self._bound[handle]
        except KeyError:
            raise SchedulingError(f"no droplet bound to handle {handle!r}") from None

    # -- main entry -------------------------------------------------------------
    def run(self, ops: Sequence[Operation]) -> Schedule:
        """Execute all operations in order; returns the timeline."""
        schedule = Schedule()
        for op in ops:
            start = self.controller.time
            moves_before = self._total_moves()
            handle, detail = self._execute(op)
            schedule.events.append(
                TimelineEvent(
                    op=type(op).__name__,
                    droplet=handle,
                    start=start,
                    end=self.controller.time,
                    moves=self._total_moves() - moves_before,
                    detail=detail,
                )
            )
        schedule.total_time = self.controller.time
        schedule.total_moves = sum(e.moves for e in schedule.events)
        return schedule

    def _total_moves(self) -> int:
        return self._moves

    # -- op execution -----------------------------------------------------------
    def _execute(self, op: Operation) -> Tuple[str, str]:
        if isinstance(op, Dispense):
            return self._do_dispense(op)
        if isinstance(op, Transport):
            return self._do_transport(op)
        if isinstance(op, Mix):
            return self._do_mix(op)
        if isinstance(op, Split):
            return self._do_split(op)
        if isinstance(op, Detect):
            return self._do_detect(op)
        if isinstance(op, Discard):
            return self._do_discard(op)
        raise SchedulingError(f"unknown operation {op!r}")

    def _other_positions(self, *exclude: str) -> Set[Hashable]:
        skip = {self._bound[h].uid for h in exclude if h in self._bound}
        return {
            d.position for d in self.controller.droplets if d.uid not in skip
        }

    def _blocked_for(self, *exclude: str) -> Set[Hashable]:
        return self.router.spacing_halo(self._other_positions(*exclude))

    def _do_dispense(self, op: Dispense) -> Tuple[str, str]:
        if op.droplet in self._bound:
            raise SchedulingError(f"handle {op.droplet!r} already bound")
        droplet = Droplet(
            position=op.at,
            volume=op.volume,
            contents=dict(op.contents),
            name=op.droplet,
        )
        self.controller.dispense(droplet)
        self._bound[op.droplet] = droplet
        return (op.droplet, f"at {op.at}")

    def _do_transport(self, op: Transport) -> Tuple[str, str]:
        droplet = self.droplet(op.droplet)
        path = self.router.route(
            droplet.position, op.to, blocked=self._blocked_for(op.droplet)
        )
        self.controller.follow_path(droplet, path)
        self._moves += len(path) - 1
        return (op.droplet, f"{len(path) - 1} moves to {op.to}")

    def _do_mix(self, op: Mix) -> Tuple[str, str]:
        first = self.droplet(op.first)
        second = self.droplet(op.second)
        blocked = self._blocked_for(op.first, op.second)
        # Park the second droplet on the mix site (staying clear of the
        # first droplet's spacing halo), bring the first next to it with a
        # sanctioned final approach, merge, then circulate.
        path2 = self.router.route(
            second.position,
            op.at,
            blocked=blocked | self.router.spacing_halo([first.position]),
        )
        self.controller.follow_path(second, path2)
        self._moves += len(path2) - 1
        halo2 = self.router.spacing_halo([second.position])
        path1 = None
        for staging in self.router.neighbors(op.at):
            if staging == second.position or not self.router.usable(
                staging, blocked
            ):
                continue
            try:
                path1 = self.router.route(
                    first.position,
                    staging,
                    blocked=blocked | (halo2 - {staging, first.position}),
                )
                break
            except RoutingError:
                continue
        if path1 is None:
            raise SchedulingError(
                f"no approach route to the mix site {op.at}"
            )
        self.controller.follow_path(first, path1, merging_with=second)
        self._moves += len(path1) - 1
        merged = self.controller.merge(first, second)
        self._moves += 1
        merged.name = op.result
        del self._bound[op.first]
        del self._bound[op.second]
        self._bound[op.result] = merged
        loop = self._mix_loop(op.at, blocked)
        self.controller.mix_in_place(merged, op.cycles, loop)
        self._moves += op.cycles * (len(loop) - 1)
        return (op.result, f"{op.cycles} mix cycles at {op.at}")

    def _do_split(self, op: Split) -> Tuple[str, str]:
        droplet = self.droplet(op.droplet)
        blocked = self._blocked_for(op.droplet)
        targets = [
            c
            for c in self.router.neighbors(droplet.position)
            if self.router.usable(c, blocked)
        ]
        opposite = self._opposite_pair(droplet.position, targets)
        if opposite is None:
            raise SchedulingError(
                f"no opposite free neighbor pair to split at {droplet.position}"
            )
        cell_a, cell_b = opposite
        half_a, half_b = self.controller.split(droplet, cell_a, cell_b)
        self._moves += 1
        half_a.name, half_b.name = op.into
        del self._bound[op.droplet]
        self._bound[op.into[0]] = half_a
        self._bound[op.into[1]] = half_b
        return (op.droplet, f"split onto {cell_a} / {cell_b}")

    def _do_detect(self, op: Detect) -> Tuple[str, str]:
        droplet = self.droplet(op.droplet)
        if droplet.position != op.at:
            path = self.router.route(
                droplet.position, op.at, blocked=self._blocked_for(op.droplet)
            )
            self.controller.follow_path(droplet, path)
            self._moves += len(path) - 1
        self.controller.hold(op.duration)
        return (op.droplet, f"detect {op.duration:.1f}s at {op.at}")

    def _do_discard(self, op: Discard) -> Tuple[str, str]:
        droplet = self.droplet(op.droplet)
        self.controller.remove(droplet)
        del self._bound[op.droplet]
        return (op.droplet, "discarded")

    # -- geometric helpers ---------------------------------------------------------
    def _mix_loop(self, at: Hashable, blocked: Set[Hashable]) -> List[Hashable]:
        """A shortest closed loop through ``at`` over usable cells.

        On the hex lattice a triangle (three mutually adjacent cells)
        exists almost everywhere; on a square lattice the minimum loop is a
        2x2 square.  Found by brute force over neighbor pairs/triples.
        """
        neighbors = [
            c for c in self.router.neighbors(at) if self.router.usable(c, blocked)
        ]
        # Triangle: at -> a -> b -> at with a, b adjacent.
        for a in neighbors:
            for b in self.router.neighbors(a):
                if b in neighbors and b != a:
                    return [at, a, b, at]
        # Square loop: at -> a -> x -> b -> at.
        for a in neighbors:
            for x in self.router.neighbors(a):
                if x == at or not self.router.usable(x, blocked):
                    continue
                for b in self.router.neighbors(x):
                    if b in neighbors and b != a:
                        return [at, a, x, b, at]
        raise SchedulingError(f"no usable mixing loop around {at}")

    def _opposite_pair(
        self, center: Hashable, candidates: List[Hashable]
    ) -> Optional[Tuple[Hashable, Hashable]]:
        """Two free neighbors diametrically opposite across ``center``."""
        for a in candidates:
            for b in candidates:
                if a == b:
                    continue
                if self._is_opposite(center, a, b):
                    return (a, b)
        return None

    @staticmethod
    def _is_opposite(center: Hashable, a: Hashable, b: Hashable) -> bool:
        # Works for both Hex (q, r) and Square (x, y) coordinates: the two
        # displacement vectors must cancel.
        try:
            da = a - center
            db = b - center
        except TypeError:  # pragma: no cover - exotic coordinate types
            return False
        return (da + db) == type(da)(0, 0)
