"""Electrode controller: droplet state machine with fluidic constraints.

"The configurations of the microfluidic array are programmed into a
microcontroller that controls the voltages of electrodes in the array."
This module plays that microcontroller: it owns the droplets on one chip,
executes single-cell moves / merges / splits, enforces the fluidic
constraints that make those operations physically meaningful, and accounts
for elapsed time through the electrowetting model.

Constraints enforced on every operation:

* **locality** — a droplet moves only to a physically adjacent cell;
* **health** — the (physical) target cell must be fault-free; with a
  :class:`~repro.reconfig.remap.CellRemap` installed, logical coordinates
  are translated to the repaired physical cells first;
* **occupancy** — one droplet per cell;
* **static spacing** — two droplets must never sit on adjacent cells unless
  they are about to merge (otherwise they would coalesce accidentally).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.chip.biochip import Biochip
from repro.errors import (
    ConstraintViolationError,
    FluidicsError,
    IllegalMoveError,
)
from repro.fluidics.droplet import Droplet
from repro.fluidics.electrowetting import DEFAULT_MODEL, ElectrowettingModel
from repro.reconfig.remap import CellRemap

__all__ = ["ElectrodeController"]


class ElectrodeController:
    """Executes droplet operations on one biochip.

    Parameters
    ----------
    chip:
        The physical array (with any fault map already applied).
    remap:
        Optional logical→physical repair remap.  All controller APIs take
        *logical* coordinates; without a remap, logical == physical.
    model:
        Electrowetting physics used for time accounting.
    voltage:
        Actuation voltage for transports (defaults to the rated maximum).
    """

    def __init__(
        self,
        chip: Biochip,
        remap: Optional[CellRemap] = None,
        model: ElectrowettingModel = DEFAULT_MODEL,
        voltage: Optional[float] = None,
    ):
        self.chip = chip
        self.remap = remap
        self.model = model
        self.voltage = voltage if voltage is not None else model.max_voltage
        self._step_time = model.step_time(self.voltage)
        self.time: float = 0.0
        self._droplets: Dict[int, Droplet] = {}
        self._occupied: Dict[Hashable, int] = {}  # logical coord -> droplet uid

    # -- coordinate translation ------------------------------------------------
    def physical(self, logical: Hashable) -> Hashable:
        """The physical cell serving a logical coordinate."""
        if self.remap is not None:
            return self.remap.physical(logical)
        return logical

    def _check_usable(self, logical: Hashable) -> None:
        phys = self.physical(logical)
        cell = self.chip[phys]
        if cell.is_faulty:
            raise IllegalMoveError(
                f"cell {logical} (physical {phys}) is faulty and unusable"
            )

    # -- droplet bookkeeping ------------------------------------------------------
    @property
    def droplets(self) -> List[Droplet]:
        return [self._droplets[uid] for uid in sorted(self._droplets)]

    def _enforce_spacing(self, moving: Droplet, allow_contact_with: Tuple[int, ...] = ()) -> None:
        """No two droplets on adjacent cells, except sanctioned merges.

        Adjacency is evaluated on *physical* cells — that is where the
        fluid actually sits.
        """
        phys = self.physical(moving.position)
        for other in self._droplets.values():
            if other.uid == moving.uid or other.uid in allow_contact_with:
                continue
            other_phys = self.physical(other.position)
            if other_phys in self.chip.neighbors(phys) or other_phys == phys:
                raise ConstraintViolationError(
                    f"droplets {moving.name or moving.uid} and "
                    f"{other.name or other.uid} violate the static spacing "
                    f"constraint at {phys} / {other_phys}"
                )

    # -- operations ---------------------------------------------------------------
    def dispense(self, droplet: Droplet) -> Droplet:
        """Place a freshly dispensed droplet on its (logical) cell."""
        self._check_usable(droplet.position)
        if droplet.position in self._occupied:
            raise ConstraintViolationError(
                f"cannot dispense onto occupied cell {droplet.position}"
            )
        self._droplets[droplet.uid] = droplet
        self._occupied[droplet.position] = droplet.uid
        try:
            self._enforce_spacing(droplet)
        except ConstraintViolationError:
            del self._droplets[droplet.uid]
            del self._occupied[droplet.position]
            raise
        return droplet

    def remove(self, droplet: Droplet) -> None:
        """Take a droplet off the array (waste port / collected product)."""
        if droplet.uid not in self._droplets:
            raise FluidicsError(f"droplet {droplet.uid} is not on the chip")
        del self._droplets[droplet.uid]
        del self._occupied[droplet.position]

    def move(self, droplet: Droplet, target: Hashable, merging_with: Optional[Droplet] = None) -> None:
        """One single-cell move of ``droplet`` to logical cell ``target``."""
        if droplet.uid not in self._droplets:
            raise FluidicsError(f"droplet {droplet.uid} is not on the chip")
        src_phys = self.physical(droplet.position)
        dst_phys = self.physical(target)
        if dst_phys not in self.chip.neighbors(src_phys):
            raise IllegalMoveError(
                f"{target} (physical {dst_phys}) is not adjacent to "
                f"{droplet.position} (physical {src_phys}); droplets only "
                "move to physically adjacent cells"
            )
        self._check_usable(target)
        occupant = self._occupied.get(target)
        if occupant is not None and (
            merging_with is None or occupant != merging_with.uid
        ):
            raise ConstraintViolationError(f"cell {target} is occupied")

        del self._occupied[droplet.position]
        droplet.position = target
        allow = (merging_with.uid,) if merging_with is not None else ()
        try:
            self._enforce_spacing(droplet, allow_contact_with=allow)
        except ConstraintViolationError:
            # Roll the move back so the controller state stays consistent.
            droplet.position = self.remap.logical(src_phys) if self.remap else src_phys
            self._occupied[droplet.position] = droplet.uid
            raise
        if occupant is None:
            self._occupied[target] = droplet.uid
        self.time += self._step_time

    def follow_path(self, droplet: Droplet, path: List[Hashable], merging_with: Optional[Droplet] = None) -> None:
        """Move along ``path`` (first element must be the current cell)."""
        if not path:
            raise FluidicsError("empty path")
        if path[0] != droplet.position:
            raise IllegalMoveError(
                f"path starts at {path[0]} but droplet is at {droplet.position}"
            )
        for step in path[1:]:
            last = step == path[-1]
            self.move(
                droplet, step, merging_with=merging_with if last else None
            )

    def merge(self, mover: Droplet, stationary: Droplet) -> Droplet:
        """Coalesce two droplets sitting on adjacent cells.

        ``mover`` steps onto ``stationary``'s cell; the merged droplet
        replaces both.  Raises if they are not adjacent.
        """
        src = self.physical(mover.position)
        dst = self.physical(stationary.position)
        if dst not in self.chip.neighbors(src):
            raise IllegalMoveError(
                f"cannot merge: {mover.position} and {stationary.position} "
                "are not adjacent"
            )
        self.move(mover, stationary.position, merging_with=stationary)
        merged = mover.merged_with(stationary)
        merged.position = stationary.position
        self.remove(mover)
        # ``stationary`` still occupies the cell; swap it for the merged one.
        del self._droplets[stationary.uid]
        self._droplets[merged.uid] = merged
        self._occupied[merged.position] = merged.uid
        return merged

    def split(self, droplet: Droplet, cell_a: Hashable, cell_b: Hashable) -> Tuple[Droplet, Droplet]:
        """Split a droplet onto two opposite adjacent cells.

        Electrowetting splitting requires pulling the droplet apart with
        electrodes on opposite sides; both targets must be free, usable
        neighbors of the droplet's cell.
        """
        center = self.physical(droplet.position)
        for cell in (cell_a, cell_b):
            self._check_usable(cell)
            if self.physical(cell) not in self.chip.neighbors(center):
                raise IllegalMoveError(
                    f"split target {cell} is not adjacent to {droplet.position}"
                )
            if cell in self._occupied and self._occupied[cell] != droplet.uid:
                raise ConstraintViolationError(f"split target {cell} is occupied")
        if cell_a == cell_b:
            raise IllegalMoveError("split targets must be distinct")
        half_a, half_b = droplet.split()
        self.remove(droplet)
        half_a.position = cell_a
        half_b.position = cell_b
        self._droplets[half_a.uid] = half_a
        self._occupied[cell_a] = half_a.uid
        self._droplets[half_b.uid] = half_b
        self._occupied[cell_b] = half_b.uid
        self.time += self._step_time
        return (half_a, half_b)

    def mix_in_place(self, droplet: Droplet, cycles: int, loop: List[Hashable]) -> None:
        """Mix by circulating the droplet around a small loop of cells.

        Droplet mixing on a digital biochip is done by moving the merged
        droplet in a closed loop; each circuit folds the fluid layers.
        ``loop`` must start and end at the droplet's cell.
        """
        if cycles < 1:
            raise FluidicsError(f"mix cycles must be >= 1, got {cycles}")
        if not loop or loop[0] != droplet.position or loop[-1] != droplet.position:
            raise FluidicsError(
                "mix loop must start and end at the droplet's cell"
            )
        for _ in range(cycles):
            self.follow_path(droplet, loop)

    def hold(self, duration: float) -> None:
        """Let time pass with no droplet motion (incubation, detection)."""
        if duration < 0:
            raise FluidicsError(f"hold duration must be >= 0, got {duration}")
        self.time += duration
