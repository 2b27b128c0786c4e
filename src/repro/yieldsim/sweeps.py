"""Parameter sweeps: the series behind Figures 7, 9, 10 and 13.

Each sweep returns plain dataclass records so the experiment drivers,
benchmarks and tests can all consume the same structures.  Seeds are derived
deterministically from the base seed — ``seed + counter`` per point for the
survival sweeps, one shared ``seed + 1`` for all points of a defect-count
sweep (common random numbers; see :func:`defect_count_sweep`) — so a sweep
is exactly reproducible and individual points can be recomputed in
isolation.

Execution is delegated to :class:`repro.yieldsim.engine.SweepEngine`: the
vectorized screening kernel decides most runs without per-run matching, and
callers may pass their own engine to run points across worker processes
(``jobs > 1``) and/or against an on-disk result cache — with results
bit-identical to the default serial engine either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.chip.biochip import Biochip
from repro.designs.interstitial import build_with_primary_count
from repro.designs.spec import DesignSpec
from repro.yieldsim.defects import DefectModel
from repro.yieldsim.effective import chip_effective_yield
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.kernel import PointSpec
from repro.yieldsim.montecarlo import DEFAULT_RUNS
from repro.yieldsim.stats import StopRule, YieldEstimate

__all__ = [
    "SurvivalPoint",
    "DefectCountPoint",
    "DefectModelPoint",
    "survival_sweep",
    "defect_count_sweep",
    "defect_model_sweep",
    "default_engine",
]

#: A p-indexed defect-model family: maps (chip, p) to the model that plays
#: "i.i.d. survival at p" under some spatial regime (see
#: :class:`repro.yieldsim.defects.ModelFamily`).
ModelFamilyLike = Callable[[Biochip, float], DefectModel]

#: The survival-probability grid the paper's figures span.
DEFAULT_P_GRID: Tuple[float, ...] = tuple(
    round(0.90 + 0.01 * i, 2) for i in range(11)
)

#: Shared serial engine used when callers do not supply one.
_DEFAULT_ENGINE: Optional[SweepEngine] = None


def default_engine() -> SweepEngine:
    """The lazily created serial engine behind the plain sweep functions."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = SweepEngine()
    return _DEFAULT_ENGINE


@dataclass(frozen=True)
class SurvivalPoint:
    """One Monte-Carlo point of a yield-vs-p sweep.

    ``model`` names the spatial defect model the point was sampled under
    (``None`` for the default i.i.d. regime).
    """

    design: str
    n: int
    p: float
    estimate: YieldEstimate
    effective: float
    model: Optional[str] = None

    @property
    def yield_value(self) -> float:
        return self.estimate.value


@dataclass(frozen=True)
class DefectCountPoint:
    """One Monte-Carlo point of a yield-vs-m sweep (Figure 13 regime)."""

    m: int
    estimate: YieldEstimate

    @property
    def yield_value(self) -> float:
        return self.estimate.value


@dataclass(frozen=True)
class DefectModelPoint:
    """One Monte-Carlo point of a defect-model sweep on a fixed chip."""

    model: str
    severity: float
    estimate: YieldEstimate
    digest: str

    @property
    def yield_value(self) -> float:
        return self.estimate.value


def survival_sweep(
    specs: Sequence[DesignSpec],
    ns: Sequence[int],
    ps: Sequence[float] = DEFAULT_P_GRID,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    stop: Optional[StopRule] = None,
    model: Optional[ModelFamilyLike] = None,
    criterion: Optional[object] = None,
) -> List[SurvivalPoint]:
    """Monte-Carlo yield of each design at each (n, p) — Figure 9's data.

    Chips are built with exactly ``n`` primary cells per design (the paper
    parameterizes by primary count).  Effective yield uses each chip's
    realized redundancy ratio.  Point seeds follow the historical
    ``seed + counter`` derivation, so a given (specs, ns, ps, runs, seed)
    produces the same numbers whatever engine executes it.

    ``stop`` attaches an adaptive sequential budget to every point: each
    point spends only what it needs to reach the rule's target Wilson
    half-width, with ``runs`` as the flat ceiling (see
    :class:`~repro.yieldsim.stats.StopRule`).

    ``model`` swaps the failure-map distribution: a defect-model family
    (``(chip, p) -> DefectModel``, e.g. from
    :func:`repro.yieldsim.defects.family_from_spec`) replaces the default
    i.i.d.-Bernoulli regime at every point, with p staying the sweep's
    severity axis.  The default (``None``) is bit-identical to the
    historical i.i.d. sweep.

    ``criterion`` swaps the success predicate: a
    :class:`repro.functional.SuccessCriterion` replaces the matching
    verdict at every point (same fault maps, same RNG streams — only what
    counts as a success changes).  The default (``None``) keeps the
    matching predicate and its historical cache keys.
    """
    engine = engine or default_engine()
    meta: List[Tuple[DesignSpec, int, float]] = []
    point_args: List[Tuple[Biochip, float, int]] = []
    counter = 0
    for spec in specs:
        for n in ns:
            chip = build_with_primary_count(spec, n).build()
            for p in ps:
                counter += 1
                meta.append((spec, n, p))
                point_args.append((chip, p, seed + counter))

    # One engine call for the whole sweep: points on the same chip form
    # shard chunks, and all chips' points load-balance across workers.
    if model is None:
        tasks = [
            EnginePoint(
                chip,
                PointSpec("survival", p, runs, pseed, criterion=criterion),
                stop=stop,
            )
            for chip, p, pseed in point_args
        ]
        model_names: List[Optional[str]] = [None] * len(point_args)
    else:
        tasks = []
        model_names = []
        for chip, p, pseed in point_args:
            instance = model(chip, p)
            spec_point = PointSpec.from_model(
                instance, runs, pseed, param=p, criterion=criterion
            )
            tasks.append(EnginePoint(chip, spec_point, stop=stop))
            model_names.append(instance.name)
    estimates = engine.run_points(tasks)

    points: List[SurvivalPoint] = []
    for (spec, n, p), (chip, _, _), estimate, mname in zip(
        meta, point_args, estimates, model_names
    ):
        points.append(
            SurvivalPoint(
                design=spec.name,
                n=n,
                p=p,
                estimate=estimate,
                effective=chip_effective_yield(chip, estimate),
                model=mname,
            )
        )
    return points


def defect_count_sweep(
    chip: Biochip,
    ms: Sequence[int],
    needed: Optional[Iterable[Hashable]] = None,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    stop: Optional[StopRule] = None,
) -> List[DefectCountPoint]:
    """Yield of ``chip`` under exactly-m-fault maps — Figure 13's data.

    All points share one derived seed (common random numbers): each run
    ranks the cells once, and the m-fault set is the m top-ranked cells,
    so fault sets are *nested* across the sweep.  Every point remains an
    exactly-uniform m-subset draw, but the yield curve is monotone in m
    by construction — no Monte-Carlo wiggle even at small budgets — and
    any single point can still be recomputed in isolation from the seed.

    Under batched execution the shared seed still yields a common stream
    per batch index, so nesting — and the monotone curve — survives
    sharding at fixed budget.  An adaptive ``stop`` rule may stop
    different points at different effective budgets, in which case the
    estimates compare different-length prefixes of the common stream and
    strict monotonicity is no longer structural.
    """
    engine = engine or default_engine()
    needed_t = tuple(sorted(set(needed))) if needed is not None else None
    tasks = [
        EnginePoint(chip, PointSpec("fixed", m, runs, seed + 1), needed_t, stop)
        for m in ms
    ]
    estimates = engine.run_points(tasks)
    return [
        DefectCountPoint(m=m, estimate=estimate)
        for m, estimate in zip(ms, estimates)
    ]


def defect_model_sweep(
    chip: Biochip,
    models: Sequence[DefectModel],
    needed: Optional[Iterable[Hashable]] = None,
    runs: int = DEFAULT_RUNS,
    seed: int = 2005,
    engine: Optional[SweepEngine] = None,
    stop: Optional[StopRule] = None,
) -> List[DefectModelPoint]:
    """Yield of ``chip`` under each spatial defect model, one engine call.

    The severity axis of the new scenario packs: every model in ``models``
    (any mix of :mod:`repro.yieldsim.defects` instances) becomes one
    engine point on the same chip, so the points share shard chunks, the
    cache keys them by model digest, and ``stop`` rules apply per point
    exactly as in the classic sweeps.

    All points share one derived seed (common random numbers, the
    :func:`defect_count_sweep` discipline).  For model families whose
    sampling is monotone in severity at a common stream — ``FixedCount``
    across m, ``IIDBernoulli``/``NegativeBinomialClustered`` across p,
    ``SpotDefects`` sharing a ``rate_cap`` (see
    :meth:`~repro.yieldsim.defects.SpotDefects.family`) — the shared seed
    makes the fault sets nested and the yield curve monotone by
    construction.  Unrelated models simply get independent-but-
    reproducible estimates.
    """
    engine = engine or default_engine()
    needed_t = tuple(sorted(set(needed))) if needed is not None else None
    tasks = [
        EnginePoint(
            chip, PointSpec.from_model(model, runs, seed + 1), needed_t, stop
        )
        for model in models
    ]
    estimates = engine.run_points(tasks)
    return [
        DefectModelPoint(
            model=model.name,
            severity=model.severity,
            estimate=estimate,
            digest=model.digest(),
        )
        for model, estimate in zip(models, estimates)
    ]
