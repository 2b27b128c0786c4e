"""Ablation: hexagonal vs square electrodes.

Section 3 of the paper: "hexagonal electrodes are being used to replace the
conventional square electrodes design; this close-packed design is expected
to increase the effectiveness of droplet transportation in a 2-D array."
This ablation quantifies that expectation on equal-cell-count arrays:

* **route length** — average shortest-path moves between uniformly random
  cell pairs (hex diagonals cut corners the square grid cannot);
* **fault resilience of routing** — fraction of random pairs still
  connected after knocking out a fraction of cells (6 neighbors give more
  ways around a dead cell than 4);
* **repairability** — a faulty cell has 6 candidate neighbors for
  interstitial repair instead of 4, which is what lets DTMB designs reach
  s up to 4 with p = 4..6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.chip.builders import plain_chip, square_chip
from repro.experiments.registry import BudgetPolicy, register
from repro.faults.injection import make_rng
from repro.fluidics.routing import Router
from repro.errors import RoutingError
from repro.geometry.hexgrid import RectRegion
from repro.yieldsim.engine import SweepEngine

__all__ = ["HexSquareResult", "run"]


@dataclass(frozen=True)
class HexSquareResult:
    """Transport metrics on equal-size hex and square arrays."""

    cells: int
    pairs: int
    mean_route_hex: float
    mean_route_square: float
    connected_after_faults_hex: float
    connected_after_faults_square: float
    fault_fraction: float

    @property
    def route_advantage(self) -> float:
        """Square mean route length / hex mean route length (> 1 = hex wins)."""
        return self.mean_route_square / self.mean_route_hex

    @property
    def headers(self) -> List[str]:
        return ["metric", "hexagonal", "square"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                "mean route length (moves)",
                f"{self.mean_route_hex:.2f}",
                f"{self.mean_route_square:.2f}",
            ),
            (
                f"pairs connected with {self.fault_fraction:.0%} cells dead",
                f"{self.connected_after_faults_hex:.3f}",
                f"{self.connected_after_faults_square:.3f}",
            ),
            ("neighbors per interior cell", 6, 4),
        ]


@register(
    "ablation-hexsquare",
    title="Electrode-geometry ablation: hexagonal vs square arrays",
    paper_ref="Section 3 (ablation)",
    order=120,
    budget=BudgetPolicy(divisor=25, floor=120),
    epilogue=lambda raw: (
        "",
        f"hex route advantage: {raw.route_advantage:.2f}x shorter",
    ),
)
def run(
    *,
    runs: int = 300,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    side: int = 12,
    fault_fraction: float = 0.15,
) -> HexSquareResult:
    """Compare ``side x side`` hex and square arrays on random routes.

    ``runs`` is the number of random route pairs per geometry.  Routing is
    graph search, not a yield sweep, so ``engine`` is accepted for the
    uniform experiment signature but has no effect.
    """
    pairs = runs
    hex_chip = plain_chip(RectRegion(side, side), name="hex")
    sq_chip = square_chip(side, side, name="square")
    rng = make_rng(seed)

    def mean_route(chip) -> float:
        router = Router(chip)
        coords = chip.coords
        total = 0
        for _ in range(pairs):
            i, j = rng.choice(len(coords), size=2, replace=False)
            total += len(router.route(coords[i], coords[j])) - 1
        return total / pairs

    def connectivity_under_faults(chip) -> float:
        coords = chip.coords
        kill = max(1, int(fault_fraction * len(coords)))
        connected = 0
        trials = max(1, pairs // 3)
        working = chip.copy()
        for t in range(trials):
            dead = rng.choice(len(coords), size=kill, replace=False)
            dead_set = {coords[i] for i in dead}
            working.clear_faults()
            working.apply_fault_map(dead_set)
            alive = [c for c in coords if c not in dead_set]
            if len(alive) < 2:
                continue
            i, j = rng.choice(len(alive), size=2, replace=False)
            router = Router(working)
            try:
                router.route(alive[i], alive[j])
                connected += 1
            except RoutingError:
                pass
        return connected / trials

    return HexSquareResult(
        cells=side * side,
        pairs=pairs,
        mean_route_hex=mean_route(hex_chip),
        mean_route_square=mean_route(sq_chip),
        connected_after_faults_hex=connectivity_under_faults(hex_chip),
        connected_after_faults_square=connectivity_under_faults(sq_chip),
        fault_fraction=fault_fraction,
    )
