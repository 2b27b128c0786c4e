"""Local reconfiguration: repair faulty primaries with adjacent spares.

This is the paper's repair procedure for interstitial redundancy.  Given a
chip with a fault map applied, we build the bipartite graph between faulty
primary cells and *fault-free* adjacent spares (faulty spares are useless),
compute a maximum matching, and declare the chip repaired iff the matching
saturates the faulty side.  The resulting :class:`RepairPlan` records which
spare substitutes for which primary, and can be turned into a coordinate
remap for running assays on the repaired chip
(:mod:`repro.reconfig.remap`).

A plan may optionally cover only a subset of primaries (``needed``): the
diagnostics-chip experiment of Figure 13 repairs only the primary cells
actually used by the bioassays — a faulty *unused* primary costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.chip.biochip import Biochip
from repro.errors import IrreparableChipError, ReconfigurationError
from repro.reconfig.bipartite import (
    BipartiteGraph,
    Matching,
    maximum_matching,
)

__all__ = ["RepairPlan", "build_repair_graph", "plan_local_repair"]


@dataclass(frozen=True)
class RepairPlan:
    """Outcome of a local-reconfiguration attempt.

    ``assignment`` maps each repaired faulty primary coordinate to the
    fault-free spare coordinate that functionally replaces it;
    ``unrepaired`` lists faulty primaries the matching could not cover.
    A plan with an empty ``unrepaired`` list means the chip is usable.
    """

    assignment: Dict[Hashable, Hashable]
    unrepaired: Tuple[Hashable, ...] = ()

    @property
    def complete(self) -> bool:
        """True iff every faulty primary that needed repair was repaired."""
        return not self.unrepaired

    @property
    def spares_used(self) -> int:
        return len(self.assignment)

    def validate_against(self, chip: Biochip) -> None:
        """Check plan invariants on ``chip``: adjacency, roles, health.

        * every repaired coordinate is a faulty primary;
        * every assigned spare is fault-free and physically adjacent
          (microfluidic locality);
        * no spare is used twice.
        """
        used: Set[Hashable] = set()
        for primary, spare in self.assignment.items():
            pcell = chip[primary]
            scell = chip[spare]
            if not (pcell.is_primary and pcell.is_faulty):
                raise ReconfigurationError(
                    f"plan repairs {primary}, which is not a faulty primary"
                )
            if not (scell.is_spare and scell.is_good):
                raise ReconfigurationError(
                    f"plan assigns {spare}, which is not a fault-free spare"
                )
            if spare not in chip.neighbors(primary):
                raise ReconfigurationError(
                    f"plan violates microfluidic locality: {spare} is not "
                    f"adjacent to {primary}"
                )
            if spare in used:
                raise ReconfigurationError(f"spare {spare} assigned twice")
            used.add(spare)


def build_repair_graph(
    chip: Biochip, needed: Optional[Iterable[Hashable]] = None
) -> BipartiteGraph:
    """The bipartite graph of Figure 8: faulty primaries × good spares.

    ``needed`` restricts the left side to the given primary coordinates
    (defaults to all primaries).  Edges are physical adjacencies.
    """
    if needed is None:
        faulty = [c.coord for c in chip.faulty_primaries()]
    else:
        needed_set = set(needed)
        faulty = [
            c.coord
            for c in chip.faulty_primaries()
            if c.coord in needed_set
        ]
    good_spares = [c.coord for c in chip.good_spares()]
    spare_set = set(good_spares)
    edges = [
        (f, s)
        for f in faulty
        for s in chip.neighbors(f)
        if s in spare_set
    ]
    return BipartiteGraph(faulty, good_spares, edges)


def plan_local_repair(
    chip: Biochip,
    needed: Optional[Iterable[Hashable]] = None,
    algorithm: str = "hopcroft-karp",
    require_complete: bool = False,
) -> RepairPlan:
    """Compute a local-reconfiguration plan for the chip's current faults.

    Parameters
    ----------
    chip:
        Array with its fault map already applied.
    needed:
        Primary coordinates that must work (default: all).  Faulty
        primaries outside this set are ignored.
    algorithm:
        Matching algorithm name (see :data:`MATCHING_ALGORITHMS`).
    require_complete:
        If True, raise :class:`IrreparableChipError` instead of returning
        an incomplete plan.
    """
    graph = build_repair_graph(chip, needed)
    matching: Matching = maximum_matching(graph, algorithm)
    unrepaired = tuple(u for u in graph.left if u not in matching)
    plan = RepairPlan(assignment=dict(matching), unrepaired=unrepaired)
    if require_complete and not plan.complete:
        raise IrreparableChipError(
            f"chip {chip.name!r}: {len(unrepaired)} faulty primary cells "
            f"cannot be covered by adjacent fault-free spares "
            f"(first: {list(unrepaired)[:3]})"
        )
    return plan
