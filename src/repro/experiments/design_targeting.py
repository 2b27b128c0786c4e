"""Design targeting: "different levels of redundancy ... to target given
yield levels and manufacturing processes" (Section 1), made operational.

For a grid of process qualities and yield targets, run the selector and
tabulate which architecture is the cheapest adequate choice.  This is the
design-method payoff of the paper: the table a biochip architect would
pin above their desk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import TABLE1_DESIGNS
from repro.designs.selector import recommend_design
from repro.designs.spec import DesignSpec
from repro.experiments.registry import BudgetPolicy, register
from repro.yieldsim.engine import SweepEngine

__all__ = ["TargetingResult", "run"]

DEFAULT_TARGETS: Tuple[float, ...] = (0.80, 0.90, 0.95, 0.99)
DEFAULT_PS: Tuple[float, ...] = (0.90, 0.93, 0.96, 0.99)


@dataclass(frozen=True)
class TargetingResult:
    """Cheapest adequate design per (p, target-yield) grid point."""

    n: int
    targets: Tuple[float, ...]
    ps: Tuple[float, ...]
    table: Dict[Tuple[float, float], str]  # (p, target) -> design or "-"

    def choice(self, p: float, target: float) -> str:
        return self.table[(p, target)]

    @property
    def headers(self) -> List[str]:
        return ["p \\ target"] + [f"Y>={t:.2f}" for t in self.targets]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            tuple(
                [f"{p:.2f}"]
                + [self.table[(p, t)] for t in self.targets]
            )
            for p in self.ps
        ]


@register(
    "targeting",
    title="Cheapest adequate design per process quality and yield target",
    paper_ref="Section 1 (design method)",
    order=130,
    aliases=("design-targeting",),
    budget=BudgetPolicy(divisor=3, floor=500),
)
def run(
    *,
    runs: int = 3000,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    n: int = 100,
    targets: Sequence[float] = DEFAULT_TARGETS,
    ps: Sequence[float] = DEFAULT_PS,
    designs: Sequence[DesignSpec] = TABLE1_DESIGNS,
) -> TargetingResult:
    """Build the (process quality x yield target) design-choice table.

    ``runs`` is the Monte-Carlo budget per recommendation; the selector
    runs its own small sweeps, so ``engine`` is accepted for the uniform
    experiment signature but has no effect.

    ``"-"`` marks infeasible corners (no catalog design reaches the
    target); they appear at low p with aggressive targets, which is the
    paper's motivation for *designing in* redundancy rather than relying
    on process maturity.
    """
    table: Dict[Tuple[float, float], str] = {}
    for i, p in enumerate(ps):
        for j, target in enumerate(targets):
            rec = recommend_design(
                target,
                p,
                n=n,
                designs=designs,
                runs=runs,
                seed=seed + 97 * i + j,
            )
            table[(p, target)] = rec.chosen.name if rec.feasible else "-"
    return TargetingResult(
        n=n, targets=tuple(targets), ps=tuple(ps), table=table
    )
