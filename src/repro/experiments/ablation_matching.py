"""Ablation: does the matching algorithm matter?

The paper prescribes a *maximum* bipartite matching.  A cheaper greedy
(maximal) matching can under-repair: it may strand a faulty cell whose
spare was greedily taken by a neighbor, wrongly scrapping a repairable
chip.  This ablation measures, over seeded random fault maps:

* how often greedy reaches the optimum (and how much yield it forfeits);
* that Kuhn and Hopcroft-Karp always agree (both maximum);
* relative runtime of the three algorithms on repair graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_with_primary_count
from repro.experiments.registry import BudgetPolicy, register
from repro.experiments.report import format_table
from repro.faults.injection import bernoulli_faults
from repro.reconfig.bipartite import (
    MATCHING_ALGORITHMS,
    BipartiteGraph,
    saturates_left,
)
from repro.reconfig.local import build_repair_graph
from repro.yieldsim.engine import SweepEngine

__all__ = ["MatchingAblationResult", "run"]


@dataclass(frozen=True)
class MatchingAblationResult:
    """Per-algorithm repair statistics over the same fault maps."""

    trials: int
    repaired: Dict[str, int]
    disagreements: int  # greedy says no, maximum says yes
    kuhn_hk_mismatches: int  # should always be zero
    seconds: Dict[str, float]

    @property
    def headers(self) -> List[str]:
        return ["algorithm", "chips repaired", "repair rate", "seconds"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                name,
                self.repaired[name],
                f"{self.repaired[name] / self.trials:.4f}",
                f"{self.seconds[name]:.3f}",
            )
            for name in sorted(self.repaired)
        ]

    def format_report(self) -> str:
        table = format_table(self.headers, self.rows)
        return (
            table
            + f"\n\ngreedy under-repairs: {self.disagreements} / {self.trials}"
            + f"\nkuhn vs hopcroft-karp mismatches: {self.kuhn_hk_mismatches}"
        )


@register(
    "ablation-matching",
    title="Matching-algorithm ablation: greedy vs maximum matching",
    paper_ref="Section 4 (ablation)",
    order=100,
    budget=BudgetPolicy(divisor=5, floor=100),
)
def run(
    *,
    runs: int = 2000,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    n: int = 240,
    p: float = 0.93,
) -> MatchingAblationResult:
    """Compare the three algorithms on identical DTMB(2,6) fault maps.

    ``runs`` is the number of fault-map trials.  The per-run timing loop
    is intrinsically serial, so ``engine`` is accepted for the uniform
    experiment signature but has no effect.
    """
    trials = runs
    chip = build_with_primary_count(DTMB_2_6, n).build()
    repaired = {name: 0 for name in MATCHING_ALGORITHMS}
    seconds = {name: 0.0 for name in MATCHING_ALGORITHMS}
    disagreements = 0
    mismatches = 0
    for t in range(trials):
        chip.clear_faults()
        chip.apply_fault_map(bernoulli_faults(chip, p, seed=seed + t))
        graph: BipartiteGraph = build_repair_graph(chip)
        outcomes: Dict[str, bool] = {}
        for name, algorithm in MATCHING_ALGORITHMS.items():
            start = time.perf_counter()
            matching = algorithm(graph)
            seconds[name] += time.perf_counter() - start
            ok = saturates_left(graph, matching)
            outcomes[name] = ok
            if ok:
                repaired[name] += 1
        if outcomes["hopcroft-karp"] and not outcomes["greedy"]:
            disagreements += 1
        if outcomes["kuhn"] != outcomes["hopcroft-karp"]:
            mismatches += 1
    return MatchingAblationResult(
        trials=trials,
        repaired=repaired,
        disagreements=disagreements,
        kuhn_hk_mismatches=mismatches,
        seconds=seconds,
    )
