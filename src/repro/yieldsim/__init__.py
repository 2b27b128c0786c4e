"""Yield estimation: analytical models, Monte-Carlo and sweeps.

* :mod:`repro.yieldsim.analytical` — ``p**n`` baseline and the DTMB(1,6)
  cluster ("flower") model of Figure 7;
* :mod:`repro.yieldsim.montecarlo` — batched repairability simulation for
  the higher-redundancy designs (Figures 9, 13);
* :mod:`repro.yieldsim.effective` — the EY = Y/(1+RR) trade-off metric
  (Figure 10);
* :mod:`repro.yieldsim.defects` — pluggable spatial defect models
  (i.i.d., fixed-count, clustered spots, rate mixing, radial gradients)
  behind every Monte-Carlo regime;
* :mod:`repro.yieldsim.kernel` — the vectorized screen->match
  repairability kernel behind the sweeps;
* :mod:`repro.yieldsim.engine` — parallel sweep execution with derived
  per-point seeds and an optional on-disk result cache;
* :mod:`repro.yieldsim.sweeps` — reproducible parameter sweeps;
* :mod:`repro.yieldsim.stats` — Wilson confidence intervals.
"""

from repro.yieldsim.analytical import (
    dtmb16_yield,
    flower_yield,
    yield_no_redundancy,
)
from repro.yieldsim.defects import (
    DefectGeometry,
    DefectModel,
    FixedCount,
    IIDBernoulli,
    NegativeBinomialClustered,
    RadialGradient,
    SpotDefects,
    family_from_spec,
    geometry_for,
)
from repro.yieldsim.effective import chip_effective_yield, effective_yield
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.exact import MAX_EXACT_CELLS, exact_yield
from repro.yieldsim.kernel import PointSpec, RepairStructure, ScreenStats
from repro.yieldsim.montecarlo import DEFAULT_RUNS, YieldSimulator
from repro.yieldsim.stats import YieldEstimate, wilson_interval
from repro.yieldsim.sweeps import (
    DEFAULT_P_GRID,
    DefectCountPoint,
    DefectModelPoint,
    SurvivalPoint,
    default_engine,
    defect_count_sweep,
    defect_model_sweep,
    survival_sweep,
)

__all__ = [
    "SweepEngine",
    "EnginePoint",
    "PointSpec",
    "RepairStructure",
    "ScreenStats",
    "DefectModel",
    "DefectGeometry",
    "IIDBernoulli",
    "FixedCount",
    "SpotDefects",
    "NegativeBinomialClustered",
    "RadialGradient",
    "family_from_spec",
    "geometry_for",
    "default_engine",
    "yield_no_redundancy",
    "flower_yield",
    "dtmb16_yield",
    "YieldSimulator",
    "DEFAULT_RUNS",
    "YieldEstimate",
    "wilson_interval",
    "effective_yield",
    "chip_effective_yield",
    "exact_yield",
    "MAX_EXACT_CELLS",
    "SurvivalPoint",
    "DefectCountPoint",
    "DefectModelPoint",
    "survival_sweep",
    "defect_count_sweep",
    "defect_model_sweep",
    "DEFAULT_P_GRID",
]
