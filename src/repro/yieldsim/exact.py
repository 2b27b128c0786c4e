"""Exact yield by exhaustive enumeration (small arrays only).

For arrays up to ~20 cells the yield of a defect-tolerant design can be
computed *exactly*: enumerate every fault subset, weight it by
``p^(alive) * q^(dead)``, and test repairability with the same maximum
matching the Monte-Carlo engine uses.  This is exponential and exists for
one purpose — ground truth.  The test suite uses it to validate both the
Monte-Carlo estimator and the DTMB(1,6) cluster formula on real arrays.

Two optimizations keep 20 cells tractable (2^20 = 1M subsets):

* faults on *spare* cells only matter through the spare's availability, so
  subsets are enumerated over the whole array but repairability is
  evaluated on the tiny induced bipartite graph;
* subsets are walked in Gray-code order so the faulty-set updates are
  incremental (one cell flips per step).
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Set, Tuple

from repro.chip.biochip import Biochip
from repro.errors import SimulationError
from repro.yieldsim.kernel import kuhn_repairable

__all__ = ["exact_yield", "MAX_EXACT_CELLS"]

#: Hard cap: 2^22 subsets is a few seconds; beyond that use Monte-Carlo.
MAX_EXACT_CELLS = 22


def exact_yield(
    chip: Biochip,
    p: float,
    needed: Optional[Iterable[Hashable]] = None,
) -> float:
    """The exact yield of ``chip`` at per-cell survival probability ``p``.

    Enumerates all ``2^len(chip)`` fault subsets; raises for arrays larger
    than :data:`MAX_EXACT_CELLS`.  Semantics identical to
    :meth:`~repro.yieldsim.montecarlo.YieldSimulator.run_survival`: the
    chip is good iff every faulty needed primary can be matched to an
    adjacent fault-free spare.
    """
    n = len(chip)
    if n > MAX_EXACT_CELLS:
        raise SimulationError(
            f"exact enumeration capped at {MAX_EXACT_CELLS} cells, "
            f"chip has {n}; use Monte-Carlo"
        )
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"survival probability must be in [0, 1], got {p}")

    coords = chip.coords
    index = {c: i for i, c in enumerate(coords)}
    if needed is None:
        needed_coords = [c.coord for c in chip.primaries()]
    else:
        needed_coords = sorted(set(needed))
        for coord in needed_coords:
            if coord not in chip or not chip[coord].is_primary:
                raise SimulationError(
                    f"needed cell {coord} is not a primary cell of the chip"
                )
    needed_positions = {index[c]: j for j, c in enumerate(needed_coords)}
    adjacency: List[Tuple[int, ...]] = [
        tuple(index[s.coord] for s in chip.adjacent_spares(c))
        for c in needed_coords
    ]

    q = 1.0 - p
    total = 0.0
    # Gray-code walk over all subsets: subset(g) where g = i ^ (i >> 1);
    # consecutive subsets differ in exactly one bit.
    alive = [True] * n  # per-cell survival, the matcher's spare check
    weight_faulty = 0  # number of faulty cells, tracked incrementally
    faulty_needed: Set[int] = set()  # needed positions of faulty primaries
    # Precompute p^a * q^b table to avoid pow in the hot loop.
    pow_p = [p**k for k in range(n + 1)]
    pow_q = [q**k for k in range(n + 1)]

    # Subset 0: no faults — always good.
    total += pow_p[n]
    gray = 0
    for i in range(1, 1 << n):
        new_gray = i ^ (i >> 1)
        changed_bit = (gray ^ new_gray).bit_length() - 1
        gray = new_gray
        was_alive = alive[changed_bit]
        alive[changed_bit] = not was_alive
        weight_faulty += 1 if was_alive else -1
        j = needed_positions.get(changed_bit)
        if j is not None:
            if was_alive:
                faulty_needed.add(j)
            else:
                faulty_needed.discard(j)
        weight = pow_p[n - weight_faulty] * pow_q[weight_faulty]
        if weight == 0.0:
            continue
        if kuhn_repairable(adjacency, faulty_needed, alive):
            total += weight
    return total
