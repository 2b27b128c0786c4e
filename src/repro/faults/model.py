"""Fault taxonomy for digital microfluidics-based biochips (Section 4).

The paper's yield model repairs **catastrophic** (hard) faults — complete
malfunction of a cell: dielectric breakdown, a short between adjacent
electrodes, or an open in the metal connection between the electrode and
its control source.  A cell is simply good or faulty; the mechanism is
recorded for reporting only.

A :class:`FaultMap` collects the faults present on one manufactured chip
instance and can be applied to a :class:`~repro.chip.biochip.Biochip`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, Set

from repro.chip.biochip import Biochip
from repro.errors import FaultModelError

__all__ = ["FaultKind", "Fault", "FaultMap"]


class FaultKind(enum.Enum):
    """Specific failure mechanisms called out in Section 4 of the paper."""

    #: Dielectric breakdown at high voltage: droplet-electrode short,
    #: electrolysis prevents further transportation.
    DIELECTRIC_BREAKDOWN = "dielectric-breakdown"
    #: Short between two adjacent electrodes: they act as one long electrode
    #: and droplet actuation is lost.
    ELECTRODE_SHORT = "electrode-short"
    #: Open in the metal connection to the control source: the electrode
    #: can never be activated.
    OPEN_CONNECTION = "open-connection"


@dataclass(frozen=True)
class Fault:
    """One catastrophic fault instance on one cell."""

    coord: Hashable
    kind: FaultKind


class FaultMap:
    """The set of cell faults on one manufactured chip instance.

    At most one fault is recorded per cell (the first one wins — a cell
    that is already dead cannot fail "more"), which matches the yield
    model's view of a cell as simply good or faulty.
    """

    def __init__(self, faults: Iterable[Fault] = ()):
        self._faults: Dict[Hashable, Fault] = {}
        for fault in faults:
            self.add(fault)

    def add(self, fault: Fault) -> None:
        self._faults.setdefault(fault.coord, fault)

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(sorted(self._faults.values(), key=lambda f: f.coord))

    def __contains__(self, coord: Hashable) -> bool:
        return coord in self._faults

    @property
    def coords(self) -> Set[Hashable]:
        """The coordinates of all faulty cells."""
        return set(self._faults)

    def fault_at(self, coord: Hashable) -> Fault:
        try:
            return self._faults[coord]
        except KeyError:
            raise FaultModelError(f"no fault recorded at {coord}") from None

    def apply_to(self, chip: Biochip) -> None:
        """Mark every faulted coordinate on ``chip``.

        Raises :class:`FaultModelError` if a fault refers to a coordinate
        that is not on the chip, which would indicate the map was generated
        for a different layout.
        """
        missing = [c for c in self._faults if c not in chip]
        if missing:
            raise FaultModelError(
                f"fault map refers to {len(missing)} coordinates not on chip "
                f"{chip.name!r} (first: {sorted(missing)[:3]})"
            )
        chip.apply_fault_map(self._faults)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"FaultMap({len(self)} faults)"
