"""Figure 10: effective yield EY = Y/(1+RR) for all four designs, n = 100.

The paper's trade-off result: redundancy costs area, so at high cell
survival probability the light designs (DTMB(1,6), DTMB(2,6)) deliver the
best *effective* yield, while at low survival probability the heavy
DTMB(4,4) wins.  The crossover structure is the key qualitative claim this
driver reproduces and the benchmark asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.designs.catalog import TABLE1_DESIGNS
from repro.designs.spec import DesignSpec
from repro.experiments.registry import register
from repro.viz.plot import ascii_chart
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.montecarlo import DEFAULT_RUNS
from repro.yieldsim.stats import StopRule
from repro.yieldsim.sweeps import DEFAULT_P_GRID, SurvivalPoint, survival_sweep

__all__ = ["Fig10Result", "run"]

DEFAULT_N = 100


@dataclass(frozen=True)
class Fig10Result:
    """Effective-yield sweep with crossover analysis."""

    n: int
    points: Tuple[SurvivalPoint, ...]

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        out: Dict[str, List[Tuple[float, float]]] = {}
        for point in self.points:
            out.setdefault(point.design, []).append((point.p, point.effective))
        return out

    def best_design_at(self, p: float) -> str:
        """The design with the highest EY at survival probability ``p``."""
        best: Optional[SurvivalPoint] = None
        for point in self.points:
            if abs(point.p - p) < 1e-9 and (
                best is None or point.effective > best.effective
            ):
                best = point
        if best is None:
            raise KeyError(f"no sweep point at p={p}")
        return best.design

    def crossovers(self) -> List[Tuple[float, str, str]]:
        """``(p, previous winner, new winner)`` where the EY leader changes."""
        ps = sorted({point.p for point in self.points})
        out: List[Tuple[float, str, str]] = []
        previous = self.best_design_at(ps[0])
        for p in ps[1:]:
            winner = self.best_design_at(p)
            if winner != previous:
                out.append((p, previous, winner))
                previous = winner
        return out

    @property
    def headers(self) -> List[str]:
        return ["design", "p", "yield", "EY"]

    @property
    def rows(self) -> List[Tuple[object, ...]]:
        return [
            (pt.design, f"{pt.p:.2f}", f"{pt.yield_value:.4f}", f"{pt.effective:.4f}")
            for pt in self.points
        ]

    def format_chart(self) -> str:
        return ascii_chart(
            self.series(),
            title=f"Figure 10: effective yield, n={self.n} primary cells",
            y_label="EY",
            x_label="cell survival probability p",
        )


@register(
    "fig10",
    title="Effective yield EY = Y/(1+RR) and its crossovers",
    paper_ref="Figure 10",
    order=60,
    epilogue=lambda raw: ("", f"crossovers: {raw.crossovers()}"),
    charts=lambda raw: (("effective-yield", raw.format_chart()),),
)
def run(
    *,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    designs: Sequence[DesignSpec] = TABLE1_DESIGNS,
    n: int = DEFAULT_N,
    ps: Sequence[float] = DEFAULT_P_GRID,
    stop: Optional[StopRule] = None,
    model=None,
) -> Fig10Result:
    """The Figure 10 sweep: all four designs at n = 100 primaries.

    ``model`` reruns the crossover analysis under a spatial defect-model
    family (the CLI's ``--defect-model``) — useful for asking whether the
    paper's EY crossovers survive clustered defects.
    """
    points = survival_sweep(
        designs, [n], ps, runs=runs, seed=seed, engine=engine, stop=stop,
        model=model,
    )
    return Fig10Result(n=n, points=tuple(points))
