"""Scenario pack: matching yield vs functional yield, side by side.

The paper calls a chip "repaired" when every primary function has a
working cell — a maximum-matching criterion.  The functional-yield
subsystem (:mod:`repro.functional`) asks the stricter question the
criterion stands in for: after remapping, can the assay's droplet routes
still be scheduled on the repaired electrode array within a deadline?
These experiments run both predicates over the *same* fault maps (same
seeds, same RNG streams) and report the gap per sweep point, so the
difference is exact per run, not two noisy estimates.

* ``fig7-functional`` — the DTMB(1,6) flower array: matching vs
  routing-aware yield.  Flower repair keeps every spare adjacent to its
  primary, so remaps barely perturb routes — the gap measures deadline
  slack, not fabric damage.
* ``fig9-functional`` — the s > 1 designs.  The headline: DTMB(4,4)
  posts the best *matching* yield of the family while its *functional*
  yield is near zero — its dense spare lattice disconnects the primary
  routing fabric even on a fault-free chip, so the assay almost never
  runs (only a rare repair remap reconnects it: 1 in 10000 runs at
  n=60, p=0.9).
* ``scenario-multiplexed`` — one design under three success predicates
  of increasing strictness: matching, single-assay routing, and two
  concurrent assays sharing the fabric under a tight makespan deadline.

``fig7-functional`` and ``scenario-multiplexed`` return one
:class:`~repro.experiments.report.RegimeComparison` (matching baseline
first); ``fig9-functional`` pairs two Figure 9 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_flower_chip
from repro.designs.spec import DesignSpec
from repro.experiments.fig9 import Fig9Result
from repro.experiments.registry import DEFAULT_STOP_RULE, BudgetPolicy, register
from repro.experiments.report import RegimeComparison, format_table
from repro.functional import MultiplexedCriterion, RoutingCriterion
from repro.viz.plot import ascii_chart
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.montecarlo import DEFAULT_RUNS
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import (
    DEFAULT_P_GRID,
    SurvivalPoint,
    default_engine,
    survival_sweep,
)

__all__ = [
    "Fig9FunctionalResult",
    "run_fig7_functional",
    "run_fig9_functional",
    "run_multiplexed",
]

#: Sweep grids trimmed for the expensive residue stage: the functional
#: packs schedule real droplet routes for every run the exact screens
#: cannot decide, so they run fewer array sizes (and, for the concurrent
#: router, fewer points) than the classic figures.
FUNCTIONAL_NS: Tuple[int, ...] = (60, 120)
MULTIPLEXED_P_GRID: Tuple[float, ...] = (0.90, 0.93, 0.96, 0.99)


# -- fig7-functional ----------------------------------------------------------

@register(
    "fig7-functional",
    title="DTMB(1,6) flower array: matching vs routing-aware yield",
    paper_ref="Figure 7 (functional scenario)",
    order=143,
    aliases=("fig7f",),
    budget=BudgetPolicy(divisor=2, floor=400, stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("matching-vs-routing", raw.format_chart()),),
    epilogue=lambda raw: (
        "",
        f"max matching-vs-functional gap: {raw.gap('routing'):.4f}",
    ),
)
def run_fig7_functional(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    n: int = 60,
    ps: Sequence[float] = DEFAULT_P_GRID,
    assay: str = "glucose",
    deadline: int = 200,
    stop: Optional[StopRule] = None,
) -> RegimeComparison:
    """Matching vs functional yield of the flower array, same fault maps.

    Both columns use the identical per-point seeds, so every run's fault
    map is judged by both predicates and the gap column is an exact
    per-map difference.  On the flower array each primary's spare is
    adjacent, so repair barely moves routes; the gap isolates what the
    matching criterion misses even in the paper's friendliest design.
    """
    chip = build_flower_chip(n)
    criterion = RoutingCriterion(assay=assay, deadline=deadline)
    eng = engine or default_engine()
    schedule = [(p, seed + i) for i, p in enumerate(ps)]
    base = eng.survival_estimates(chip, schedule, runs, stop=stop)
    func = eng.survival_estimates(
        chip, schedule, runs, stop=stop, criterion=criterion
    )
    return RegimeComparison(
        ps=tuple(ps),
        columns=(
            ("matching", "yield (matching)"),
            ("routing", f"yield (routing {assay}, d={deadline})"),
        ),
        yields={
            "matching": {p: est.value for p, est in zip(ps, base)},
            "routing": {p: est.value for p, est in zip(ps, func)},
        },
        title=f"Figure 7 scenario: DTMB(1,6) n={n}, "
        "matching vs routing-aware yield",
        x_label="cell survival probability p",
        gap_column=True,
    )


# -- fig9-functional ----------------------------------------------------------

@dataclass(frozen=True)
class Fig9FunctionalResult:
    """The Figure 9 designs under matching and routing criteria."""

    assay: str
    deadline: int
    matching: Tuple[SurvivalPoint, ...]
    functional: Tuple[SurvivalPoint, ...]

    def worst_gap(self, design: str) -> float:
        return max(
            base.yield_value - func.yield_value
            for base, func in zip(self.matching, self.functional)
            if base.design == design
        )

    def series(self, n: int) -> Dict[str, List[Tuple[float, float]]]:
        """Per-design functional-yield series at one array size."""
        return Fig9Result(points=self.functional).series(n)

    @property
    def headers(self) -> List[str]:
        return [
            "design", "n", "p", "yield (matching)",
            f"yield (routing {self.assay}, d={self.deadline})", "gap",
        ]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (
                base.design,
                base.n,
                f"{base.p:.2f}",
                f"{base.yield_value:.4f}",
                f"{func.yield_value:.4f}",
                f"{base.yield_value - func.yield_value:.4f}",
            )
            for base, func in zip(self.matching, self.functional)
        ]

    def format_report(self) -> str:
        return format_table(self.headers, self.rows)

    def format_chart(self, n: int) -> str:
        return ascii_chart(
            self.series(n),
            title=f"Figure 9 scenario: routing-aware yield, n={n} "
            "primary cells",
            y_label="functional yield",
            x_label="cell survival probability p",
        )


@register(
    "fig9-functional",
    title="Matching vs routing-aware yield of the s > 1 designs",
    paper_ref="Figure 9 (functional scenario)",
    order=144,
    aliases=("fig9f",),
    budget=BudgetPolicy(divisor=5, floor=400, stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: tuple(
        (f"n-{n}", raw.format_chart(n))
        for n in sorted({pt.n for pt in raw.functional})
    ),
    epilogue=lambda raw: (
        "",
        "worst matching-vs-functional gap per design: "
        + "; ".join(
            f"{design}: {raw.worst_gap(design):.4f}"
            for design in sorted({pt.design for pt in raw.matching})
        ),
    ),
)
def run_fig9_functional(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = (DTMB_2_6, DTMB_3_6, DTMB_4_4),
    ns: Sequence[int] = FUNCTIONAL_NS,
    ps: Sequence[float] = DEFAULT_P_GRID,
    assay: str = "glucose",
    deadline: int = 200,
    stop: Optional[StopRule] = None,
) -> Fig9FunctionalResult:
    """Figure 9's designs judged by matching and by routing, same seeds.

    Both sweeps use the classic ``seed + counter`` point seeds, so each
    row's gap is a per-fault-map difference.  Expect DTMB(2,6) to show
    almost no gap, DTMB(3,6) a few percent (remaps onto spares lengthen
    routes past the deadline), and DTMB(4,4) — the paper's matching-yield
    champion — a functional yield of about zero (at most ~1e-3): its
    spare lattice leaves the primary fabric disconnected before a single
    fault lands, and only a rare repair remap reconnects it.
    """
    criterion = RoutingCriterion(assay=assay, deadline=deadline)
    base = survival_sweep(
        designs, ns, ps, runs=runs, seed=seed, engine=engine, stop=stop
    )
    func = survival_sweep(
        designs, ns, ps, runs=runs, seed=seed, engine=engine, stop=stop,
        criterion=criterion,
    )
    return Fig9FunctionalResult(
        assay=assay,
        deadline=deadline,
        matching=tuple(base),
        functional=tuple(func),
    )


# -- scenario-multiplexed -----------------------------------------------------

@register(
    "scenario-multiplexed",
    title="Concurrent-assay functional yield under a makespan deadline",
    paper_ref="Section 5 (functional scenario pack)",
    order=145,
    aliases=("multiplexed",),
    budget=BudgetPolicy(divisor=40, floor=100, stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("criteria", raw.format_chart()),),
    epilogue=lambda raw: (
        "",
        f"worst routing gap vs matching: {raw.gap('routing'):.4f}; "
        f"worst multiplexed gap vs matching: {raw.gap('multiplexed'):.4f}",
    ),
)
def run_multiplexed(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    spec: DesignSpec = DTMB_3_6,
    n: int = 60,
    ps: Sequence[float] = MULTIPLEXED_P_GRID,
    assays: Sequence[str] = ("glucose", "lactate"),
    routing_deadline: int = 200,
    multiplexed_deadline: int = 14,
    stop: Optional[StopRule] = None,
) -> RegimeComparison:
    """Yield under three success predicates of increasing strictness.

    All three sweeps share point seeds, so every fault map is judged
    three ways: does a matching exist, can one assay's routes still be
    scheduled, and can both assays run *concurrently* — sharing the
    repaired fabric under droplet non-interference — within a tight
    makespan deadline (the fault-free makespan is ~13 moves, so
    ``multiplexed_deadline=14`` leaves almost no detour slack).  The
    concurrent router prices every residue run, so this pack runs a
    deliberately small grid under a steep budget divisor.
    """
    criteria = {
        "matching": None,
        "routing": RoutingCriterion(
            assay=assays[0], deadline=routing_deadline
        ),
        "multiplexed": MultiplexedCriterion(
            assays=tuple(assays), deadline=multiplexed_deadline
        ),
    }
    yields: Dict[str, Dict[float, float]] = {}
    for name, criterion in criteria.items():
        points = survival_sweep(
            (spec,), (n,), ps, runs=runs, seed=seed, engine=engine,
            stop=stop, criterion=criterion,
        )
        yields[name] = {p: pt.yield_value for p, pt in zip(ps, points)}
    return RegimeComparison(
        ps=tuple(ps),
        columns=(
            ("matching", "yield (matching)"),
            ("routing", f"yield (routing, d={routing_deadline})"),
            (
                "multiplexed",
                f"yield (multiplexed x{len(assays)}, d={multiplexed_deadline})",
            ),
        ),
        yields=yields,
        title=f"Multiplexed scenario: {spec.name} n={n} "
        "under stricter success criteria",
        x_label="cell survival probability p",
    )
