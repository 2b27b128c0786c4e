"""Declarative experiment registry: one ``Experiment`` API per paper artifact.

Every figure, table and ablation in the reproduction is a driver module
exposing a uniform runner::

    def run(*, runs=..., seed=2005, engine=None, **knobs) -> <driver result>

and registering itself with the :func:`register` decorator.  The registry
is what the CLI, the artifact pipeline, the benchmarks and the tests all
dispatch through, so adding a new experiment is: write the driver, put
``@register(...)`` on its ``run``, import the module from
``repro.experiments`` — and ``repro list``, ``repro <name>``, ``repro all``
and the artifact manifest pick it up with no hand-wired glue.

The pieces
----------
:class:`Experiment`
    The registration record: name, aliases, paper reference, a
    :class:`BudgetPolicy` mapping the CLI ``--runs`` budget to the
    driver's own Monte-Carlo budget, and renderers (report, epilogue,
    charts) over the driver's native result object.
:class:`BudgetPolicy`
    Declarative budget scaling (``max(floor, runs // divisor)``), with a
    gate for opt-in Monte-Carlo columns (Figure 7's ``--mc-check``) and a
    ``deterministic`` mode for drivers that ignore the budget entirely.
:func:`execute`
    The generic dispatcher: resolves the experiment, applies the budget
    policy, times the runner, snapshots engine cache counters, and wraps
    everything in an :class:`ExperimentResult` whose
    :class:`Provenance` block records the seed, budgets, engine
    configuration, wall time, point-cache traffic and a stable digest of
    the result.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExperimentError
from repro.obs.counters import Counters
from repro.obs.profile import merge_into
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.stats import StopRule

__all__ = [
    "BudgetPolicy",
    "DEFAULT_STOP_RULE",
    "Experiment",
    "ExperimentResult",
    "Provenance",
    "REGISTRY_SCHEMA",
    "register",
    "get",
    "all_experiments",
    "names",
    "execute",
    "result_digest",
    "stop_rule_dict",
    "listing",
]

#: Version of the machine-readable registry schema emitted by
#: :func:`listing` / :meth:`Experiment.as_dict` — shared verbatim by
#: ``repro list --json``, ``repro show --json`` and the serving layer's
#: ``GET /experiments``, so CLI consumers and HTTP clients parse one
#: format.
REGISTRY_SCHEMA = 1

#: Paper default Monte-Carlo budget (runs per sweep point).
DEFAULT_CLI_RUNS = 10_000

#: Paper default RNG seed (the publication year).
DEFAULT_SEED = 2005

#: Default adaptive rule for the Monte-Carlo figure sweeps: ±0.01 is the
#: worst-case half-width the paper's flat 10 000-run budget guarantees
#: (at p-hat = 0.5), so `--adaptive` reaches the same figure quality while
#: easy points (yield near 1) stop after the first 1000-run batch.
DEFAULT_STOP_RULE = StopRule(
    target_half_width=0.01, min_runs=1000, batch_runs=1000
)


# -- budget policy ------------------------------------------------------------

@dataclass(frozen=True)
class BudgetPolicy:
    """Maps the user-facing ``--runs`` budget to a driver's own budget.

    The effective budget is ``max(floor, runs // divisor)``.  Ablations
    whose trials are more expensive than a sweep point scale the budget
    down (``divisor > 1``) with a floor that keeps tiny CLI budgets
    statistically meaningful — exactly the scaling the bespoke CLI
    handlers used to hard-code.

    ``gate`` names a dispatch option (e.g. ``"mc_check"``) that must be
    truthy for any budget to be spent; otherwise the driver gets 0 runs
    (Figure 7 renders its analytical table only).  ``deterministic``
    drivers get 0 runs always — their output is exact.

    ``stop_rule`` declares the experiment's *adaptive* sequential budget:
    the Wilson-interval :class:`~repro.yieldsim.stats.StopRule` its sweep
    points use when the user opts in (``--adaptive`` / ``--target-ci``).
    A non-``None`` rule marks the driver adaptive-capable — its ``run``
    accepts a ``stop`` knob; the flat budget stays the ceiling either
    way, and adaptive dispatch never happens unless requested.
    """

    divisor: int = 1
    floor: int = 0
    gate: Optional[str] = None
    deterministic: bool = False
    stop_rule: Optional[StopRule] = None

    @property
    def adaptive_capable(self) -> bool:
        """True when the driver accepts a ``stop`` rule."""
        return self.stop_rule is not None

    def resolve_stop(
        self,
        adaptive: bool,
        override: Optional[StopRule] = None,
        target: Optional[float] = None,
    ) -> Optional[StopRule]:
        """The stop rule one dispatch should use, or None for flat.

        ``override`` (a full replacement rule, for API callers) wins over
        everything; ``target`` (``--target-ci``) re-targets the registered
        rule, keeping its batching/min/max so the RNG stream and cache
        semantics stay those the experiment declared.  Either applies
        only when the experiment is adaptive-capable, so ``repro all
        --adaptive`` quietly leaves deterministic and non-sweep
        experiments flat.
        """
        if not self.adaptive_capable:
            return None
        if override is not None:
            return override
        if target is not None:
            return replace(self.stop_rule, target_half_width=float(target))
        return self.stop_rule if adaptive else None

    def effective(self, runs: int, options: Mapping[str, object]) -> int:
        """The driver budget for a requested CLI budget and option set."""
        if self.deterministic:
            return 0
        if self.gate is not None and not options.get(self.gate):
            return 0
        return max(self.floor, runs // self.divisor)

    def describe(self) -> str:
        """Human-readable policy, for ``repro show``."""
        if self.deterministic:
            return "deterministic (budget ignored)"
        text = "runs" if self.divisor == 1 else f"runs // {self.divisor}"
        if self.floor:
            text = f"max({self.floor}, {text})"
        if self.gate is not None:
            text += f" if --{self.gate.replace('_', '-')} else 0"
        if self.stop_rule is not None:
            text += f"; --adaptive: {self.stop_rule.describe()}"
        return text


def stop_rule_dict(rule: Optional[StopRule]) -> Optional[Dict[str, object]]:
    """The one JSON shape of a stop rule (provenance, schema, serving)."""
    if rule is None:
        return None
    return {
        "target_half_width": rule.target_half_width,
        "min_runs": rule.min_runs,
        "max_runs": rule.max_runs,
        "batch_runs": rule.batch_runs,
        "z": rule.z,
        "digest": rule.digest(),
    }


# -- registration record ------------------------------------------------------

ReportFn = Callable[[object, Mapping[str, object]], str]
EpilogueFn = Callable[[object], Sequence[str]]
ChartsFn = Callable[[object], Sequence[Tuple[str, str]]]


@dataclass(frozen=True)
class Experiment:
    """One registered paper artifact and how to run/render it."""

    name: str
    runner: Callable[..., object]
    title: str
    paper_ref: str
    order: int
    aliases: Tuple[str, ...] = ()
    budget: BudgetPolicy = field(default_factory=BudgetPolicy)
    tabular: bool = True
    report: Optional[ReportFn] = None
    epilogue: Optional[EpilogueFn] = None
    charts: Optional[ChartsFn] = None
    #: True when the driver's ``run`` accepts a ``model=`` defect-model
    #: family (the CLI's ``--defect-model`` applies only to these).
    model_knob: bool = False
    #: True when the driver's ``run`` accepts a ``criterion=`` success
    #: criterion (the CLI's ``--criterion`` applies only to these).
    criterion_knob: bool = False

    @property
    def has_charts(self) -> bool:
        return self.charts is not None

    def render_report(self, raw: object, options: Mapping[str, object]) -> str:
        """The experiment's stdout report (drivers' ``format_report``)."""
        if self.report is not None:
            return self.report(raw, options)
        return raw.format_report()

    def render_epilogue(self, raw: object) -> Tuple[str, ...]:
        """Extra report lines printed after the table (e.g. crossovers)."""
        if self.epilogue is None:
            return ()
        return tuple(self.epilogue(raw))

    def render_charts(self, raw: object) -> Tuple[Tuple[str, str], ...]:
        """``(label, ascii chart)`` pairs, empty when unsupported."""
        if self.charts is None:
            return ()
        return tuple(self.charts(raw))

    def as_dict(self) -> Dict[str, object]:
        """The machine-readable descriptor (schema ``REGISTRY_SCHEMA``).

        One schema for every consumer: ``repro list --json`` emits a list
        of these, ``repro show NAME --json`` emits one, and the serving
        layer returns them from ``GET /experiments``.
        """
        doc = (self.runner.__doc__ or "").strip().splitlines()
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "title": self.title,
            "paper_ref": self.paper_ref,
            "order": self.order,
            "tabular": self.tabular,
            "charts": self.has_charts,
            "model_knob": self.model_knob,
            "criterion_knob": self.criterion_knob,
            "driver": f"{self.runner.__module__}.run",
            "doc": doc[0].strip() if doc else None,
            "budget": {
                "describe": self.budget.describe(),
                "divisor": self.budget.divisor,
                "floor": self.budget.floor,
                "gate": self.budget.gate,
                "deterministic": self.budget.deterministic,
                "adaptive_capable": self.budget.adaptive_capable,
                "stop_rule": stop_rule_dict(self.budget.stop_rule),
            },
        }

    def describe(self) -> str:
        """Detail block for ``repro show``."""
        lines = [
            f"name:      {self.name}",
            f"paper ref: {self.paper_ref}",
            f"title:     {self.title}",
            f"aliases:   {', '.join(self.aliases) if self.aliases else '-'}",
            f"budget:    {self.budget.describe()}",
            f"defects:   {'--defect-model NAME[:k=v,...] supported' if self.model_knob else 'defined by the experiment'}",
            f"criteria:  {'--criterion NAME[:k=v,...] supported' if self.criterion_knob else 'matching (defined by the experiment)'}",
            f"tabular:   {'yes (CSV/JSON artifacts)' if self.tabular else 'no (report only)'}",
            f"charts:    {'yes' if self.has_charts else 'no'}",
            f"driver:    {self.runner.__module__}.run",
        ]
        doc = (self.runner.__doc__ or "").strip().splitlines()
        if doc:
            lines.append(f"doc:       {doc[0].strip()}")
        return "\n".join(lines)


# -- provenance + uniform result ----------------------------------------------

@dataclass(frozen=True)
class Provenance:
    """What produced a result: enough to reproduce or audit it.

    ``runs_requested``/``runs_effective`` are the CLI-level budget and the
    driver budget the policy derived from it.  The ``mc_*`` fields account
    for the Monte-Carlo points the dispatch actually executed through the
    sweep engine: total requested vs. effective (adaptively stopped) runs,
    plus the per-point requested/effective pairs; ``stop_rule`` describes
    the active adaptive rule, or is ``None`` for a flat run.
    """

    experiment: str
    seed: int
    runs_requested: int
    runs_effective: int
    engine_jobs: int
    engine_cache_dir: Optional[str]
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    digest: str
    stop_rule: Optional[Dict[str, object]] = None
    mc_runs_requested: int = 0
    mc_runs_effective: int = 0
    mc_points: Tuple[Tuple[object, ...], ...] = ()
    #: distinct (name, digest) of every explicit defect model the dispatch
    #: sampled from, in first-use order; empty for the classic i.i.d. and
    #: fixed-count regimes.
    defect_models: Tuple[Tuple[str, str], ...] = ()
    #: distinct (spec, digest) of every success criterion the dispatch
    #: evaluated, in first-use order; empty for default matching points.
    criteria: Tuple[Tuple[str, str], ...] = ()
    #: merged criterion-funnel counters across the dispatch's computed
    #: criterion points (None when nothing was computed, e.g. all cached).
    criterion_funnel: Optional[Dict[str, int]] = None
    #: nonzero resilience incident counters the dispatch survived
    #: (retries, pool rebuilds, checkpoint resumes, quarantined cache
    #: entries...); None for the common incident-free run.  Volatile
    #: telemetry like the funnel: manifest only, never the stable dict —
    #: a recovered run's *results* are identical to an uninterrupted one.
    resilience: Optional[Dict[str, int]] = None
    #: nonzero tiered cache-store traffic (local/remote hits and misses,
    #: uploads, bytes up/down) when the engine ran with a shared store;
    #: None otherwise.  Volatile telemetry like resilience: manifest
    #: only, never the stable dict — where a point came from can never
    #: change its value.
    cache: Optional[Dict[str, int]] = None
    #: per-phase wall/CPU seconds summed over the dispatch's *computed*
    #: points (worker unit totals, funnel phases, parent-side cache/fold
    #: costs); None when every point was a cache hit.  Volatile telemetry
    #: like resilience: manifest only, never the stable dict.
    timings: Optional[Dict[str, float]] = None

    def _defect_model_block(self) -> Dict[str, object]:
        """The ``defect_models`` entry, present only for model dispatches.

        Omitted (not emptied) for the classic i.i.d./fixed regimes so
        their artifacts stay byte-identical to pre-subsystem bundles.
        """
        if not self.defect_models:
            return {}
        return {
            "defect_models": [
                {"name": name, "digest": digest}
                for name, digest in self.defect_models
            ]
        }

    def _criteria_block(self) -> Dict[str, object]:
        """The ``criteria`` entry, present only for criterion dispatches.

        Same omission contract as :meth:`_defect_model_block`: default
        matching dispatches emit nothing, keeping their artifacts
        byte-identical to pre-subsystem bundles.  The funnel counters are
        volatile telemetry (cache hits have none), so they appear in
        ``as_dict`` — the manifest — but never in :meth:`stable_dict`.
        """
        if not self.criteria:
            return {}
        return {
            "criteria": [
                {"spec": spec, "digest": digest}
                for spec, digest in self.criteria
            ]
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "runs_requested": self.runs_requested,
            "runs_effective": self.runs_effective,
            "engine": {
                "jobs": self.engine_jobs,
                "cache_dir": self.engine_cache_dir,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                # Recovery incidents survived during the dispatch; absent
                # for the incident-free run so legacy manifests compare.
                **(
                    {"resilience": dict(self.resilience)}
                    if self.resilience
                    else {}
                ),
                # Tier traffic of the shared cache store, when one was
                # configured; absent otherwise so legacy manifests compare.
                **({"cache": dict(self.cache)} if self.cache else {}),
                # Where the dispatch's compute time went, summed across
                # its computed points; absent for all-cached dispatches.
                **({"timings": dict(self.timings)} if self.timings else {}),
            },
            "budget": {
                "stop_rule": self.stop_rule,
                "mc_runs_requested": self.mc_runs_requested,
                "mc_runs_effective": self.mc_runs_effective,
                # One [kind, param, requested, effective] row per executed
                # Monte-Carlo point, in execution order.
                "points": [list(point) for point in self.mc_points],
                # Which failure-map distributions produced those points.
                **self._defect_model_block(),
                # Which success predicates judged them, plus the merged
                # screen-vs-residue funnel counters of the computation.
                **self._criteria_block(),
                **(
                    {"criterion_funnel": dict(self.criterion_funnel)}
                    if self.criterion_funnel is not None
                    else {}
                ),
            },
            "wall_time_s": round(self.wall_time_s, 6),
            "digest": self.digest,
        }

    def stable_dict(self) -> Dict[str, object]:
        """The result-invariant subset: what goes into diffable artifacts.

        Wall time, cache traffic, and the engine configuration (jobs and
        the machine-local cache path — results are bit-identical across
        them by the engine's contract) vary between runs that produce the
        same numbers, so they live only in ``manifest.json`` (see
        :mod:`repro.experiments.artifacts`); everything here is a pure
        function of (experiment, seed, budget, stop rule) — adaptive
        effective budgets are deterministic given the seed.
        """
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "runs_requested": self.runs_requested,
            "runs_effective": self.runs_effective,
            "stop_rule": self.stop_rule,
            "mc_runs_requested": self.mc_runs_requested,
            "mc_runs_effective": self.mc_runs_effective,
            **self._defect_model_block(),
            **self._criteria_block(),
            "digest": self.digest,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform wrapper every dispatch returns, whatever the driver."""

    experiment: Experiment
    raw: object
    report: str
    epilogue: Tuple[str, ...]
    headers: Optional[Tuple[str, ...]]
    rows: Optional[Tuple[Tuple[object, ...], ...]]
    provenance: Provenance
    #: lazy chart cache; charts render only when something consumes them
    _charts: Optional[Tuple[Tuple[str, str], ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def charts(self) -> Tuple[Tuple[str, str], ...]:
        """``(label, ascii chart)`` pairs, rendered on first access.

        Plain report runs (no ``--chart``, no ``--out``) never pay for
        chart rendering, matching the old bespoke handlers.
        """
        if self._charts is None:
            object.__setattr__(
                self, "_charts", self.experiment.render_charts(self.raw)
            )
        return self._charts

    @property
    def name(self) -> str:
        return self.experiment.name

    @property
    def tabular(self) -> bool:
        return self.headers is not None

    def report_text(self) -> str:
        """Report plus epilogue lines — what ``repro <name>`` prints."""
        return "\n".join((self.report, *self.epilogue))

    def canonical_report_text(self) -> str:
        """Report rendered at default options, plus epilogue lines.

        This is what the artifact pipeline writes to ``report.txt``: for
        every experiment whose report ignores rendering options it equals
        :meth:`report_text`; for option-sensitive reports (figs3to6 embeds
        layout art under ``--chart``) it is the flag-independent form, so
        bundles stay byte-identical whatever flags produced them.
        """
        canonical = self.experiment.render_report(self.raw, {})
        return "\n".join((canonical, *self.epilogue))


def result_digest(
    headers: Optional[Sequence[str]],
    rows: Optional[Sequence[Sequence[object]]],
    report: str,
) -> str:
    """Stable SHA-256 of a result: its table if tabular, else its report."""
    if headers is not None:
        blob = json.dumps(
            {
                "headers": list(headers),
                "rows": [[str(v) for v in row] for row in rows or ()],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
    else:
        blob = report
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, Experiment] = {}
_ALIASES: Dict[str, str] = {}


def register(
    name: str,
    *,
    title: str,
    paper_ref: str,
    order: int,
    aliases: Sequence[str] = (),
    budget: Optional[BudgetPolicy] = None,
    tabular: bool = True,
    report: Optional[ReportFn] = None,
    epilogue: Optional[EpilogueFn] = None,
    charts: Optional[ChartsFn] = None,
    model_knob: bool = False,
    criterion_knob: bool = False,
) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Class the decorated ``run`` function as a registered experiment.

    Returns the function unchanged, so ``<module>.run(...)`` keeps working
    for direct callers (tests, benchmarks, notebooks).
    """

    def decorate(fn: Callable[..., object]) -> Callable[..., object]:
        experiment = Experiment(
            name=name,
            runner=fn,
            title=title,
            paper_ref=paper_ref,
            order=order,
            aliases=tuple(aliases),
            budget=budget if budget is not None else BudgetPolicy(),
            tabular=tabular,
            report=report,
            epilogue=epilogue,
            charts=charts,
            model_knob=model_knob,
            criterion_knob=criterion_knob,
        )
        _add(experiment)
        return fn

    return decorate


def _add(experiment: Experiment) -> None:
    for key in (experiment.name, *experiment.aliases):
        owner = _ALIASES.get(key)
        if owner is not None and owner != experiment.name:
            raise ExperimentError(
                f"experiment name/alias {key!r} already registered by {owner!r}"
            )
    previous = _REGISTRY.get(experiment.name)
    if previous is not None:
        # Re-registration (module reload) replaces the record in place.
        for alias in previous.aliases:
            _ALIASES.pop(alias, None)
    _REGISTRY[experiment.name] = experiment
    _ALIASES[experiment.name] = experiment.name
    for alias in experiment.aliases:
        _ALIASES[alias] = experiment.name


def get(name: str) -> Experiment:
    """Look up an experiment by name or alias."""
    canonical = _ALIASES.get(name)
    if canonical is None:
        known = ", ".join(names())
        raise ExperimentError(f"unknown experiment {name!r} (known: {known})")
    return _REGISTRY[canonical]


def all_experiments() -> List[Experiment]:
    """Every registered experiment, in paper (registration-order) order."""
    return sorted(_REGISTRY.values(), key=lambda e: (e.order, e.name))


def names() -> List[str]:
    """Canonical experiment names, in paper order."""
    return [experiment.name for experiment in all_experiments()]


def listing() -> Dict[str, object]:
    """The full machine-readable registry, in paper order.

    The payload behind ``repro list --json`` and the serving layer's
    ``GET /experiments``; ``schema`` is bumped whenever the descriptor
    shape changes.
    """
    return {
        "schema": REGISTRY_SCHEMA,
        "experiments": [experiment.as_dict() for experiment in all_experiments()],
    }


# -- generic dispatch ---------------------------------------------------------

def execute(
    experiment: Union[str, Experiment],
    *,
    runs: int = DEFAULT_CLI_RUNS,
    seed: int = DEFAULT_SEED,
    engine: Optional[SweepEngine] = None,
    options: Optional[Mapping[str, object]] = None,
    knobs: Optional[Mapping[str, object]] = None,
    stop: Optional[StopRule] = None,
) -> ExperimentResult:
    """Run one experiment through the uniform pipeline.

    ``runs``/``seed`` are the user-facing budget and seed; the experiment's
    :class:`BudgetPolicy` derives the driver budget.  ``options`` are
    rendering/dispatch flags (``chart``, ``mc_check``, ``adaptive``);
    ``knobs`` are passed through to the driver verbatim (grid overrides
    etc.).  ``stop`` replaces the experiment's registered stop rule
    wholesale; the ``target_ci`` option re-targets the registered rule
    instead.  Either way adaptive budgets apply only to adaptive-capable
    experiments, and only when requested (``stop``, ``target_ci`` or the
    ``adaptive`` option).
    """
    if isinstance(experiment, str):
        experiment = get(experiment)
    options = dict(options or {})
    effective = experiment.budget.effective(runs, options)
    rule = experiment.budget.resolve_stop(
        bool(options.get("adaptive")),
        override=stop,
        target=options.get("target_ci"),
    )

    # Budget accounting covers whatever engine the driver will actually
    # use: the one passed in, or the shared default.
    from repro.yieldsim.sweeps import default_engine

    track = engine if engine is not None else default_engine()
    hits0, misses0 = track.cache_hits, track.cache_misses
    res0 = track.resilience.as_dict()
    store0 = track.store_stats.as_dict()
    log0 = len(track.point_log)
    knobs = dict(knobs or {})
    if rule is not None:
        knobs["stop"] = rule
    start = time.perf_counter()
    raw = experiment.runner(
        runs=effective, seed=seed, engine=engine, **knobs
    )
    wall = time.perf_counter() - start
    points = track.point_log[log0:]
    models: List[Tuple[str, str]] = []
    criteria: List[Tuple[str, str]] = []
    funnel: Optional[Dict[str, int]] = None
    timings: Dict[str, float] = {}
    for point in points:
        if point.timings:
            merge_into(timings, point.timings)
        if point.model is not None and point.model_digest is not None:
            pair = (point.model, point.model_digest)
            if pair not in models:
                models.append(pair)
        if point.criterion is not None and point.criterion_digest is not None:
            pair = (point.criterion, point.criterion_digest)
            if pair not in criteria:
                criteria.append(pair)
            if point.funnel is not None:
                if funnel is None:
                    funnel = dict.fromkeys(point.funnel, 0)
                for key, value in point.funnel.items():
                    funnel[key] = funnel.get(key, 0) + int(value)

    report = experiment.render_report(raw, options)
    epilogue = experiment.render_epilogue(raw)
    headers: Optional[Tuple[str, ...]] = None
    rows: Optional[Tuple[Tuple[object, ...], ...]] = None
    if experiment.tabular:
        headers = tuple(str(h) for h in raw.headers)
        rows = tuple(tuple(row) for row in raw.rows)

    provenance = Provenance(
        experiment=experiment.name,
        seed=seed,
        runs_requested=runs,
        runs_effective=effective,
        engine_jobs=engine.jobs if engine is not None else 1,
        engine_cache_dir=engine.cache_dir if engine is not None else None,
        cache_hits=track.cache_hits - hits0,
        cache_misses=track.cache_misses - misses0,
        wall_time_s=wall,
        digest=result_digest(headers, rows, report),
        stop_rule=stop_rule_dict(rule),
        mc_runs_requested=sum(point.requested for point in points),
        mc_runs_effective=sum(point.effective for point in points),
        mc_points=tuple(
            (point.kind, point.param, point.requested, point.effective)
            for point in points
        ),
        defect_models=tuple(models),
        criteria=tuple(criteria),
        criterion_funnel=funnel,
        resilience=(
            Counters.delta(res0, track.resilience.as_dict()) or None
        ),
        cache=(
            Counters.delta(store0, track.store_stats.as_dict()) or None
        ),
        timings=(
            {k: round(v, 6) for k, v in sorted(timings.items())} or None
        ),
    )
    return ExperimentResult(
        experiment=experiment,
        raw=raw,
        report=report,
        epilogue=epilogue,
        headers=headers,
        rows=rows,
        provenance=provenance,
    )
