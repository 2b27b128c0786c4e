"""Scenario pack: the paper's figures under realistic spatial defect models.

The paper's yield model assumes independent cell failures, "valid for
random and small spot defects"; the defect literature it cites (Koren &
Koren) says exactly when that fails — clustered spot defects, per-chip
rate variation, wafer gradients.  These experiments rerun the paper's
Monte-Carlo figures under those regimes via the pluggable
:mod:`repro.yieldsim.defects` subsystem, all through the standard sweep
engine (sharding, caching and adaptive budgets included), and each one's
manifest provenance names the defect model and its content digest.

* ``fig7-clustered`` — the DTMB(1,6) flower array under spot defects
  calibrated to the same expected number of dead cells as the i.i.d.
  model: how optimistic is the analytical cluster model when defects
  actually cluster?
* ``fig9-clustered`` — the full Figure 9 sweep (three designs, three
  array sizes) under severity-matched spot defects.
* ``scenario-gradient`` — one design under three matched regimes: i.i.d.,
  a center-to-edge survival gradient, and Stapper-style negative-binomial
  rate mixing.

``fig7-clustered`` and ``scenario-gradient`` return one
:class:`~repro.experiments.report.RegimeComparison` (i.i.d. baseline
first); ``fig9-clustered`` extends :class:`~repro.experiments.fig9.Fig9Result`
with a defect-model column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_flower_chip, build_with_primary_count
from repro.designs.spec import DesignSpec
from repro.experiments.fig9 import DEFAULT_DESIGNS, DEFAULT_NS, Fig9Result
from repro.experiments.registry import DEFAULT_STOP_RULE, BudgetPolicy, register
from repro.experiments.report import RegimeComparison
from repro.viz.plot import ascii_chart
from repro.yieldsim.defects import (
    DefectModel,
    IIDBernoulli,
    NegativeBinomialClustered,
    RadialGradient,
    SpotDefects,
    family_from_spec,
    geometry_for,
)
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.montecarlo import DEFAULT_RUNS
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import DEFAULT_P_GRID, defect_model_sweep, survival_sweep

__all__ = [
    "Fig9ClusteredResult",
    "run_fig7_clustered",
    "run_fig9_clustered",
    "run_gradient",
]


def _regime_yields(
    chip, ps: Sequence[float], regimes: Dict[str, List[DefectModel]], **sweep
) -> Dict[str, Dict[float, float]]:
    """Yield per regime and p, all regimes in one engine call: one worker
    pool, full-width load balancing, per-point seeds as in separate calls."""
    flat = [model for models in regimes.values() for model in models]
    points = iter(defect_model_sweep(chip, flat, **sweep))
    return {
        name: {p: next(points).yield_value for p in ps} for name in regimes
    }


# -- fig7-clustered -----------------------------------------------------------

@register(
    "fig7-clustered",
    title="DTMB(1,6) flower array under severity-matched spot defects",
    paper_ref="Figure 7 (clustered scenario)",
    order=140,
    aliases=("fig7c",),
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("iid-vs-clustered", raw.format_chart()),),
    epilogue=lambda raw: (
        "",
        "max independence-assumption gap: "
        f"{raw.gap(raw.columns[-1][0]):.4f}",
    ),
)
def run_fig7_clustered(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    n: int = 60,
    ps: Sequence[float] = DEFAULT_P_GRID,
    radius: int = 1,
    stop: Optional[StopRule] = None,
) -> RegimeComparison:
    """Monte-Carlo yield of the flower array, i.i.d. vs spot defects.

    At each p the spot model is calibrated (closed form, no sampling) to
    kill the same expected number of cells as ``IIDBernoulli(p)``, so any
    yield gap is purely the *spatial* effect of clustering — a spot that
    covers a primary and its only spare defeats the flower repair.
    """
    chip = build_flower_chip(n)
    geometry = geometry_for(chip)
    spot = f"spot r={radius}"
    regimes = {
        "iid": [IIDBernoulli(p) for p in ps],
        spot: [SpotDefects.calibrate(geometry, 1.0 - p, radius) for p in ps],
    }
    return RegimeComparison(
        ps=tuple(ps),
        columns=(("iid", "yield (iid)"), (spot, f"yield ({spot})")),
        yields=_regime_yields(
            chip, ps, regimes, runs=runs, seed=seed, engine=engine, stop=stop
        ),
        title=f"Figure 7 scenario: DTMB(1,6) n={n}, "
        "independent vs clustered defects",
        x_label="cell survival probability p (matched expected faults)",
        gap_column=True,
    )


# -- fig9-clustered -----------------------------------------------------------

@dataclass(frozen=True)
class Fig9ClusteredResult(Fig9Result):
    """The Figure 9 sweep rerun under a clustered defect model."""

    radius: int

    @property
    def headers(self) -> List[str]:
        return ["design", "n", "p", "model", "yield", "ci lo", "ci hi"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (*row[:3], pt.model, *row[3:])
            for pt, row in zip(self.points, super().rows)
        ]

    def format_chart(self, n: int) -> str:
        return ascii_chart(
            self.series(n),
            title=f"Figure 9 scenario: spot-defect yield, n={n} primary cells",
            y_label="yield",
            x_label="cell survival probability p (matched expected faults)",
        )


@register(
    "fig9-clustered",
    title="Monte-Carlo yield of the s > 1 designs under spot defects",
    paper_ref="Figure 9 (clustered scenario)",
    order=141,
    aliases=("fig9c",),
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: tuple(
        (f"n-{n}", raw.format_chart(n)) for n in sorted({pt.n for pt in raw.points})
    ),
)
def run_fig9_clustered(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = DEFAULT_DESIGNS,
    ns: Sequence[int] = DEFAULT_NS,
    ps: Sequence[float] = DEFAULT_P_GRID,
    radius: int = 1,
    stop: Optional[StopRule] = None,
) -> Fig9ClusteredResult:
    """Figure 9's grid with spot defects replacing i.i.d. failures.

    Every (design, n, p) point samples from a per-chip calibrated
    :class:`~repro.yieldsim.defects.SpotDefects` killing ``1 - p`` of
    cells in expectation, using the same ``seed + counter`` point seeds as
    the classic sweep, so the clustered figure is directly comparable to
    ``fig9`` at equal budget and seed.
    """
    points = survival_sweep(
        designs,
        ns,
        ps,
        runs=runs,
        seed=seed,
        engine=engine,
        stop=stop,
        model=family_from_spec(f"spot:radius={radius}"),
    )
    return Fig9ClusteredResult(radius=radius, points=tuple(points))


# -- scenario-gradient --------------------------------------------------------

@register(
    "scenario-gradient",
    title="Wafer-gradient and rate-mixing defect scenarios",
    paper_ref="Section 5 (scenario pack)",
    order=142,
    aliases=("gradient",),
    budget=BudgetPolicy(stop_rule=DEFAULT_STOP_RULE),
    charts=lambda raw: (("regimes", raw.format_chart()),),
    epilogue=lambda raw: (
        "",
        f"worst gradient gap vs iid: {raw.gap('gradient'):.4f}; "
        f"worst negbin gap vs iid: {raw.gap('negbin'):.4f}",
    ),
)
def run_gradient(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    spec: DesignSpec = DTMB_2_6,
    n: int = 120,
    ps: Sequence[float] = DEFAULT_P_GRID,
    spread: float = 0.06,
    alpha: float = 1.0,
    stop: Optional[StopRule] = None,
) -> RegimeComparison:
    """Compare i.i.d., gradient and negative-binomial regimes at equal mean.

    All three regimes are calibrated to the same mean cell survival p at
    every sweep point — the gradient drops by ``spread`` total from chip
    center to edge and the negative-binomial model mixes the failure rate
    across runs — so the table isolates how the *shape* of the failure
    distribution moves yield at constant average severity.
    """
    chip = build_with_primary_count(spec, n).build()
    geometry = geometry_for(chip)
    regimes = {
        "iid": [IIDBernoulli(p) for p in ps],
        "gradient": [
            RadialGradient.calibrate(geometry, p, spread) for p in ps
        ],
        "negbin": [NegativeBinomialClustered(p, alpha) for p in ps],
    }
    return RegimeComparison(
        ps=tuple(ps),
        columns=(
            ("iid", "yield (iid)"),
            ("gradient", f"yield (gradient Δ{spread:g})"),
            ("negbin", f"yield (negbin α={alpha:g})"),
        ),
        yields=_regime_yields(
            chip, ps, regimes, runs=runs, seed=seed, engine=engine, stop=stop
        ),
        title=f"Gradient scenario: {spec.name} n={n} "
        "under matched spatial regimes",
        x_label="mean cell survival probability p",
    )
