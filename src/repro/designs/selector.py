"""Design selection: pick a redundancy level for a target yield.

Section 1 of the paper: "Microfluidic biochips with different levels of
redundancy can be designed to target given yield levels and manufacturing
processes."  This module operationalizes that sentence: given the process
quality (per-cell survival probability p), the required primary-cell count
n, and a target yield, it recommends the *cheapest* catalog design (lowest
redundancy ratio ⇒ smallest area) that clears the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.designs.catalog import TABLE1_DESIGNS
from repro.designs.interstitial import build_with_primary_count
from repro.designs.spec import DesignSpec
from repro.errors import DesignError, SimulationError
from repro.yieldsim.defects import IIDBernoulli
from repro.yieldsim.kernel import RepairStructure, model_successes
from repro.yieldsim.stats import YieldEstimate

__all__ = ["DesignRecommendation", "recommend_design"]


def _survival_yield(
    struct: RepairStructure, p: float, runs: int, seed: int
) -> YieldEstimate:
    """Matching yield at survival probability ``p`` on the vectorized kernel.

    Consumes the exact stream of ``YieldSimulator(chip).run_survival(p,
    runs, seed)`` and returns the identical estimate.
    """
    successes, _, _ = model_successes(
        struct, IIDBernoulli(p), runs, seed, dtype=np.float64
    )
    return YieldEstimate(successes=successes, trials=runs)


@dataclass(frozen=True)
class DesignRecommendation:
    """Outcome of a design-selection query.

    ``candidates`` holds every evaluated design with its estimated yield,
    cheapest first, so callers can inspect the trade-off the selector made.
    """

    target_yield: float
    p: float
    n: int
    chosen: Optional[DesignSpec]
    candidates: Tuple[Tuple[str, YieldEstimate], ...]

    @property
    def feasible(self) -> bool:
        return self.chosen is not None

    def format_report(self) -> str:
        lines = [
            f"target yield {self.target_yield:.3f} at p={self.p:.3f}, "
            f"n={self.n} primary cells"
        ]
        for name, estimate in self.candidates:
            lines.append(f"  {name:<12} Y = {estimate}")
        if self.chosen is not None:
            lines.append(
                f"recommended: {self.chosen.name} "
                f"(RR = {float(self.chosen.redundancy_ratio):.4f})"
            )
        else:
            lines.append(
                "no catalog design reaches the target at this process quality"
            )
        return "\n".join(lines)


def recommend_design(
    target_yield: float,
    p: float,
    n: int = 100,
    designs: Sequence[DesignSpec] = TABLE1_DESIGNS,
    runs: int = 4000,
    seed: int = 2005,
    confident: bool = True,
) -> DesignRecommendation:
    """The cheapest design whose estimated yield clears ``target_yield``.

    Designs are tried in increasing redundancy-ratio order; evaluation is
    Monte-Carlo on an exact-n instance of each design.  With
    ``confident=True`` (default) a design qualifies only if the *lower*
     95% confidence bound clears the target — the conservative call a
    manufacturer would make; otherwise the point estimate is used.
    """
    if not 0.0 < target_yield <= 1.0:
        raise SimulationError(
            f"target yield must be in (0, 1], got {target_yield}"
        )
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"survival probability must be in [0, 1], got {p}")
    if not designs:
        raise DesignError("no candidate designs supplied")
    ordered = sorted(designs, key=lambda d: d.redundancy_ratio)
    candidates: List[Tuple[str, YieldEstimate]] = []
    chosen: Optional[DesignSpec] = None
    for i, spec in enumerate(ordered):
        struct = RepairStructure(build_with_primary_count(spec, n).build())
        estimate = _survival_yield(struct, p, runs, seed + i)
        candidates.append((spec.name, estimate))
        score = estimate.lo if confident else estimate.value
        if chosen is None and score >= target_yield:
            chosen = spec
    return DesignRecommendation(
        target_yield=target_yield,
        p=p,
        n=n,
        chosen=chosen,
        candidates=tuple(candidates),
    )
