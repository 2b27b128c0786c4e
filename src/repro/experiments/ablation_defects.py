"""Ablation: how much does the independent-failure assumption matter?

The paper's yield model assumes independent cell failures, "valid for
random and small spot defects".  This ablation stresses that assumption:
clustered spot defects (one particle killing a cell and its neighbors)
are compared against independent failures *at the same expected number of
faulty cells*.  Clusters are worse for interstitial redundancy — a spot
that covers a primary and its spares defeats local reconfiguration — so
the independent model is optimistic under particle-dominated processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_with_primary_count
from repro.designs.spec import DesignSpec
from repro.experiments.registry import BudgetPolicy, register
from repro.yieldsim.defects import IIDBernoulli, SpotDefects, geometry_for
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.sweeps import defect_model_sweep

__all__ = ["DefectModelAblationResult", "run"]


@dataclass(frozen=True)
class DefectModelAblationResult:
    """Yield under independent vs clustered defects, matched in severity."""

    n: int
    rows: Tuple[Tuple[object, ...], ...]

    @property
    def headers(self) -> List[str]:
        return [
            "expected faulty cells",
            "yield (independent)",
            "yield (clustered r=1)",
            "gap",
        ]

    def gaps(self) -> List[float]:
        return [float(row[3]) for row in self.rows]


@register(
    "ablation-defects",
    title="Defect-model ablation: independent vs clustered spot defects",
    paper_ref="Section 5 (ablation)",
    order=110,
    budget=BudgetPolicy(divisor=10, floor=100),
)
def run(
    *,
    runs: int = 1500,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    spec: DesignSpec = DTMB_2_6,
    n: int = 120,
    expected_faults: Sequence[float] = (2.0, 4.0, 6.0, 8.0),
) -> DefectModelAblationResult:
    """Match E[faulty cells] between the two models and compare yield.

    ``runs`` is the number of fault-map trials per model and severity.
    Both regimes run as vectorized engine points
    (:class:`~repro.yieldsim.defects.IIDBernoulli` vs a
    :class:`~repro.yieldsim.defects.SpotDefects` calibrated to the same
    expected number of dead cells), so ``engine`` sharding/caching applies
    and the per-severity pairs share common random numbers via the sweep's
    shared seed.
    """
    chip = build_with_primary_count(spec, n).build()
    geometry = geometry_for(chip)
    cells = len(chip)
    models = []
    for expected in expected_faults:
        models.append(IIDBernoulli(1.0 - expected / cells))
        models.append(SpotDefects.calibrate(geometry, expected / cells, radius=1))
    points = defect_model_sweep(chip, models, runs=runs, seed=seed, engine=engine)
    rows = []
    for i, expected in enumerate(expected_faults):
        y_ind, y_clu = points[2 * i].yield_value, points[2 * i + 1].yield_value
        rows.append(
            (
                f"{expected:.1f}",
                f"{y_ind:.4f}",
                f"{y_clu:.4f}",
                f"{y_ind - y_clu:.4f}",
            )
        )
    return DefectModelAblationResult(n=n, rows=tuple(rows))
