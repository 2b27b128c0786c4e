"""Figure 7: analytical yield of DTMB(1,6) vs the non-redundant baseline.

``Y = (p^7 + 7 p^6 (1-p))^(n/6)`` against ``Y = p^n`` for several array
sizes over the high-survival regime.  A Monte-Carlo cross-check column
validates the cluster approximation on a real finite array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.interstitial import build_flower_chip
from repro.experiments.registry import BudgetPolicy, register
from repro.viz.plot import ascii_chart
from repro.yieldsim.analytical import dtmb16_yield, yield_no_redundancy
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import DEFAULT_P_GRID, default_engine

__all__ = ["Fig7Result", "run"]

DEFAULT_NS: Tuple[int, ...] = (60, 120, 240, 480)


@dataclass(frozen=True)
class Fig7Result:
    """Analytical curves plus an optional Monte-Carlo check series."""

    ns: Tuple[int, ...]
    ps: Tuple[float, ...]
    series: Dict[str, List[Tuple[float, float]]]
    montecarlo_check: Dict[float, float]

    @property
    def headers(self) -> List[str]:
        cols = ["p"]
        for n in self.ns:
            cols.append(f"DTMB(1,6) n={n}")
            cols.append(f"no spares n={n}")
        if self.montecarlo_check:
            cols.append(f"MC check n={self.ns[0]}")
        return cols

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        out = []
        for p in self.ps:
            row: List[object] = [f"{p:.2f}"]
            for n in self.ns:
                row.append(f"{dtmb16_yield(p, n):.4f}")
                row.append(f"{yield_no_redundancy(p, n):.4f}")
            if self.montecarlo_check:
                row.append(f"{self.montecarlo_check[p]:.4f}")
            out.append(tuple(row))
        return out

    def format_chart(self) -> str:
        return ascii_chart(
            self.series,
            title="Figure 7: DTMB(1,6) analytical yield vs no redundancy",
            y_label="yield",
            x_label="cell survival probability p",
        )


@register(
    "fig7",
    title="Analytical yield of DTMB(1,6) vs the non-redundant baseline",
    paper_ref="Figure 7",
    order=40,
    budget=BudgetPolicy(gate="mc_check"),
    charts=lambda raw: (("yield-vs-p", raw.format_chart()),),
)
def run(
    *,
    runs: int = 0,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    ns: Sequence[int] = DEFAULT_NS,
    ps: Sequence[float] = DEFAULT_P_GRID,
    stop: Optional[StopRule] = None,
    criterion: Optional[object] = None,
) -> Fig7Result:
    """Analytical Figure 7; set ``runs`` > 0 to add a Monte-Carlo check.

    The Monte-Carlo column simulates a flower-complete DTMB(1,6) array
    (every primary owns its spare, as the cluster model assumes) with the
    smallest requested n; the analytical curve should match it within
    Monte-Carlo noise.  The check runs through the sweep engine's
    screening kernel (on degree-1 designs its first peel iteration
    decides every run, no matching).

    ``criterion`` replaces the check column's success predicate with a
    functional one (see :mod:`repro.functional`): the analytical curves
    are unchanged, but the Monte-Carlo column then reports functional
    yield — which the cluster approximation does *not* model, so gaps are
    expected (and are the point).
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for n in ns:
        series[f"DTMB(1,6) n={n}"] = [(p, dtmb16_yield(p, n)) for p in ps]
        series[f"no spares n={n}"] = [
            (p, yield_no_redundancy(p, n)) for p in ps
        ]
    check: Dict[float, float] = {}
    if runs > 0:
        chip = build_flower_chip(ns[0])
        estimates = (engine or default_engine()).survival_estimates(
            chip, [(p, seed + i) for i, p in enumerate(ps)], runs,
            stop=stop, criterion=criterion,
        )
        check = {p: est.value for p, est in zip(ps, estimates)}
    return Fig7Result(
        ns=tuple(ns), ps=tuple(ps), series=series, montecarlo_check=check
    )
