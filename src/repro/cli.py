"""Command-line interface: one generic dispatcher over the experiment registry.

Every subcommand except ``gallery`` and ``recommend`` is generated from
:mod:`repro.experiments.registry` — the CLI has no per-experiment code.
Registering a new experiment (one ``@register`` decorator on its driver's
``run``) is all it takes for the command, ``repro list``, ``repro show``,
``repro all`` and the artifact manifest to pick it up.

::

    python -m repro list                       # what can be reproduced
    python -m repro show fig9                  # one experiment in detail
    python -m repro table1
    python -m repro fig9 --runs 2000 --csv fig9.csv
    python -m repro fig13 --chart
    python -m repro ablation-hexsquare --runs 5000
    python -m repro all --runs 2000 --out artifacts/
    python -m repro gallery --out designs.html
    python -m repro recommend --target-yield 0.95 --p 0.95 --n 100
    python -m repro list --json                # machine-readable registry
    python -m repro serve --port 8765 --jobs 4 # yield-as-a-service (HTTP)

Every experiment honors ``--runs`` (Monte-Carlo budget; paper default
10 000, scaled per experiment by its registered budget policy) and
``--seed``.  ``--adaptive`` switches the Monte-Carlo sweeps to sequential
budgets — each point stops once its Wilson interval meets the
experiment's registered target half-width (override with
``--target-ci W``), with ``--runs`` as the flat ceiling; the manifest
provenance records requested vs. effective runs per point.
``--shard-runs N`` splits huge points into N-run, ``SeedSequence``-seeded
shards so a single p-grid corner can use every ``--jobs`` worker.
``--retries N``/``--unit-timeout S`` retry failed or stalled compute
units with deterministic backoff (retried results are bit-identical);
``--checkpoint`` (with ``--cache``) journals adaptive points
fold-by-fold so an interrupted sweep resumes byte-identically from its
last completed fold.
``--defect-model NAME[:k=v,...]`` reruns the survival sweeps under a
spatial defect model (clustered spots, rate mixing, radial gradients —
see :mod:`repro.yieldsim.defects`) at severity matched to the p axis;
the scenario-pack experiments (``fig7-clustered``, ``fig9-clustered``,
``scenario-gradient``) package the headline comparisons.
``--criterion NAME[:k=v,...]`` swaps the success predicate of the
Monte-Carlo sweeps (fig7's check column, fig9): ``matching`` (default),
``routing:assay=A,deadline=D`` and ``multiplexed:assays=A+B,deadline=D``
count a fault map as a success only if the repaired chip still schedules
the named assay's droplet routes (see :mod:`repro.functional`); the
``fig7-functional``/``fig9-functional``/``scenario-multiplexed`` packs
report the matching-vs-functional yield gap directly.
``--jobs N`` is the one parallelism knob: a single experiment spreads its
sweep points over N worker processes, and ``repro all --jobs N`` runs up
to N whole experiments side by side, one per worker, with output
byte-identical to the serial loop.
``--csv`` exports the rows of any tabular experiment;
``--out DIR`` writes the full artifact bundle (CSV + JSON + report +
ASCII charts per experiment, plus a ``manifest.json`` with provenance:
seed, effective budget, engine jobs/cache traffic, result digest).
``repro all --out artifacts/`` is the one-command, diffable paper
reproduction.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CriterionError, ExperimentError, FaultModelError, ServeError
from repro.experiments import registry
from repro.experiments.artifacts import ArtifactRun
from repro.experiments.registry import Experiment, ExperimentResult
from repro.obs.events import configure_logging, get_logger, log_event
from repro.obs.trace import Tracer
from repro.viz.export import write_csv
from repro.yieldsim.cachestore import store_from_url
from repro.yieldsim.defects import ModelFamily, family_from_spec
from repro.yieldsim.engine import SweepEngine
from repro.yieldsim.executors import default_executor
from repro.yieldsim.resilience import DEFAULT_RETRY_POLICY, RetryPolicy, UnitRunner

__all__ = [
    "main",
    "build_parser",
    "add_budget_options",
    "add_engine_options",
    "add_adaptive_options",
    "add_model_options",
    "add_criterion_options",
    "add_render_options",
    "add_observability_options",
]

_log = get_logger("cli")


# --- shared option layers ----------------------------------------------------
#
# Every surface that runs experiments — the per-experiment subcommands,
# `all`, `recommend`, `serve` — composes these groups instead of
# redeclaring flags, so an engine option added here reaches the HTTP
# server and the budget-only `recommend` for free.

def add_budget_options(
    p: argparse.ArgumentParser, *, runs_default: int = registry.DEFAULT_CLI_RUNS
) -> None:
    """--runs/--seed: the Monte-Carlo budget and RNG seed."""
    p.add_argument(
        "--runs", type=int, default=runs_default,
        help=f"Monte-Carlo runs per point (default: {runs_default}; each "
             "experiment scales this by its registered budget policy)",
    )
    p.add_argument(
        "--seed", type=int, default=registry.DEFAULT_SEED, help="RNG seed"
    )


def add_engine_options(p: argparse.ArgumentParser) -> None:
    """--jobs/--cache/--shard-runs plus the resilience knobs.

    All of them preserve bit-identity with serial execution: retries,
    timeouts and checkpoint resumes change where and when a unit runs,
    never its numbers."""
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for Monte-Carlo sweeps; under `all`, "
             "whole experiments run side by side instead (results are "
             "bit-identical to serial execution)",
    )
    p.add_argument(
        "--shard-runs", type=int, default=None, metavar="N",
        help="split any point bigger than N runs into N-run shards with "
             "SeedSequence-spawned seeds and (with --jobs, outside `all`) "
             "spread them across the worker pool",
    )
    p.add_argument(
        "--cache", "--cache-dir", type=str, default=None, metavar="DIR",
        help="on-disk sweep result cache directory (keyed by chip, "
             "parameter, runs and seed; reruns cost nothing)",
    )
    p.add_argument(
        "--cache-url", type=str, default=None, metavar="URL",
        help="shared cache store to read through to and publish points "
             "into: http(s)://HOST:PORT (a `repro cache-serve` "
             "endpoint) or a shared-filesystem path.  Layered behind "
             "--cache as a local tier; a dead remote degrades to "
             "recomputation, never an error",
    )
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry each failed compute unit up to N times with "
             "deterministic exponential backoff before giving up "
             "(retried results are bit-identical, so 0 just means "
             "fail fast)",
    )
    p.add_argument(
        "--unit-timeout", type=float, default=None, metavar="S",
        help="retry a compute unit still running after S seconds under "
             "the --retries budget; a pool (--jobs N>1, except under "
             "`all`) preempts it, a serial engine only counts it as late",
    )
    p.add_argument(
        "--checkpoint", action="store_true",
        help="journal adaptive points fold-by-fold into the --cache "
             "directory so an interrupted sweep resumes byte-identically "
             "from its last completed fold (requires --cache)",
    )


def add_adaptive_options(p: argparse.ArgumentParser) -> None:
    """--adaptive/--target-ci: sequential stopping budgets."""
    p.add_argument(
        "--adaptive", action="store_true",
        help="adaptive sequential budgets: each Monte-Carlo point stops "
             "once its Wilson interval meets the experiment's registered "
             "target half-width; --runs stays the flat ceiling",
    )
    p.add_argument(
        "--target-ci", type=float, default=None, metavar="W",
        help="adaptive stop target: halt a point once its 95%% Wilson "
             "half-width is <= W (implies --adaptive, overrides the "
             "registered target)",
    )


def add_model_options(p: argparse.ArgumentParser) -> None:
    """--defect-model: spatial defect family for the survival sweeps."""
    p.add_argument(
        "--defect-model", type=str, default=None, metavar="NAME[:k=v,...]",
        help="spatial defect model for the survival sweeps (fig9/fig10): "
             "iid (default), spot[:radius=R], negbin[:alpha=A], "
             "gradient[:spread=S,power=W]; severity stays matched to "
             "the sweep's p axis.  Under `all`, applies to the "
             "model-capable experiments and leaves the rest unchanged",
    )


def add_criterion_options(p: argparse.ArgumentParser) -> None:
    """--criterion: functional success criterion for the survival sweeps."""
    p.add_argument(
        "--criterion", type=str, default=None, metavar="NAME[:k=v,...]",
        help="success criterion for the Monte-Carlo sweeps (fig7/fig9): "
             "matching (default), routing[:assay=A,deadline=D], "
             "multiplexed[:assays=A+B,deadline=D].  Functional criteria "
             "count a fault map as a success only if the named assay's "
             "droplet routes still schedule on the repaired chip (see "
             "repro.functional).  Under `all`, applies to the "
             "criterion-capable experiments and leaves the rest unchanged",
    )


def add_observability_options(
    p: argparse.ArgumentParser, *, trace: bool = True
) -> None:
    """--trace/--log-level/--log-json/--log-file: telemetry knobs.

    All of them are out-of-band by the telemetry invariant: fixed-seed
    artifacts are byte-identical with tracing and logging on, off, or
    broken.  ``trace=False`` omits the --trace flag for surfaces that
    trace per request instead of per run (`repro serve`).
    """
    if trace:
        p.add_argument(
            "--trace", type=str, default=None, metavar="FILE",
            help="write a Chrome trace-event JSON of the run's compute "
                 "spans (points, units, folds, cache traffic) to FILE; "
                 "open it in Perfetto or chrome://tracing.  Results are "
                 "bit-identical with or without it",
        )
    p.add_argument(
        "--log-level", type=str, default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable structured event logging at this level (default: "
             "unconfigured — stdlib prints WARNING+ incidents only)",
    )
    p.add_argument(
        "--log-json", action="store_true",
        help="emit the event log as NDJSON (one JSON object per line) "
             "instead of human-readable text; implies --log-level info "
             "unless --log-level is given",
    )
    p.add_argument(
        "--log-file", type=str, default=None, metavar="PATH",
        help="write the event log to PATH instead of stderr (keeps "
             "NDJSON clean of progress output); implies --log-level "
             "info unless --log-level is given",
    )


def add_render_options(p: argparse.ArgumentParser) -> None:
    """--csv/--chart/--mc-check/--out: what to emit besides the report."""
    p.add_argument(
        "--csv", type=str, default=None, help="export rows to a CSV file"
    )
    p.add_argument(
        "--chart", action="store_true", help="print ASCII charts too"
    )
    p.add_argument(
        "--mc-check", action="store_true",
        help="(fig7) add the Monte-Carlo validation column",
    )
    p.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="write CSV/JSON/report/chart artifacts plus manifest.json "
             "into this run directory",
    )


def _emit(text: str) -> None:
    print(text)


def _fail(message: str) -> int:
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _check_budget(args: argparse.Namespace) -> None:
    """Reject a --runs/--seed the sweeps cannot honor as a CLI error."""
    runs = getattr(args, "runs", None)
    if runs is not None and runs < 1:
        raise ExperimentError(f"--runs must be >= 1, got {runs}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise ExperimentError(f"--seed must be >= 0, got {seed}")


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Validate the engine flags and map them to SweepEngine arguments.

    Only the options a flag actually set appear, so an empty dict means
    a default engine.  Validation happens here so a bad flag is a clean
    CLI error, not a traceback.  ``--retries N`` means N retries *after*
    the first attempt (``attempts=N + 1``); ``--unit-timeout`` alone keeps
    the default attempt budget.
    """
    kwargs: dict = {}
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ExperimentError(f"--jobs must be >= 1, got {jobs}")
    if jobs != 1:
        kwargs["jobs"] = jobs
    shard_runs = getattr(args, "shard_runs", None)
    if shard_runs is not None:
        if shard_runs < 1:
            raise ExperimentError(f"--shard-runs must be >= 1, got {shard_runs}")
        kwargs["shard_runs"] = shard_runs
    cache = getattr(args, "cache", None) or None  # "" means no cache
    if cache is not None:
        kwargs["cache_dir"] = cache
    cache_url = getattr(args, "cache_url", None) or None
    if cache_url is not None:
        kwargs["cache_store"] = store_from_url(cache_url)
    retries = getattr(args, "retries", None)
    unit_timeout = getattr(args, "unit_timeout", None)
    if retries is not None and retries < 0:
        raise ExperimentError(f"--retries must be >= 0, got {retries}")
    if unit_timeout is not None and not 0 < unit_timeout < math.inf:
        raise ExperimentError(
            f"--unit-timeout must be finite and > 0, got {unit_timeout}"
        )
    if retries is not None or unit_timeout is not None:
        attempts = (
            retries + 1 if retries is not None else DEFAULT_RETRY_POLICY.attempts
        )
        kwargs["retry"] = RetryPolicy(attempts=attempts, unit_timeout=unit_timeout)
    if getattr(args, "checkpoint", False):
        if cache is None:
            raise ExperimentError("--checkpoint requires --cache DIR")
        kwargs["checkpoint"] = True
    if getattr(args, "trace", None):
        kwargs["tracer"] = Tracer()
    return kwargs


def _engine_from_args(args: argparse.Namespace) -> Optional[SweepEngine]:
    """The engine the flags ask for, reporting progress to stderr, or
    None for pure defaults.

    Progress is reported in ~10% chunks so long paper-budget sweeps show
    life without polluting the report on stdout.
    """
    kwargs = _engine_kwargs(args)
    if not kwargs:
        return None

    last_bucket = [-1]

    def progress(done: int, total: int) -> None:
        # `done` jumps past all cache hits at once, so report whenever a
        # new 10% bucket is crossed rather than on exact multiples.
        bucket = done * 10 // max(1, total)
        if bucket > last_bucket[0] or done == total:
            last_bucket[0] = bucket
            print(f"  [{done}/{total} points]", file=sys.stderr)

    return SweepEngine(progress=progress, **kwargs)


def _configure_logging_from_args(args: argparse.Namespace) -> None:
    """Install the repro.* log handler the --log-* flags ask for."""
    level = getattr(args, "log_level", None)
    json_lines = bool(getattr(args, "log_json", False))
    log_file = getattr(args, "log_file", None) or None
    if level is None and not json_lines and log_file is None:
        return  # unconfigured: stdlib lastResort prints WARNING+ only
    configure_logging(
        level or "info", json_lines=json_lines, path=log_file
    )


def _write_trace(args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
    """Write the armed tracer's Chrome-trace JSON to the --trace FILE."""
    if tracer is None:
        return
    tracer.write(args.trace)
    print(f"wrote {args.trace} ({len(tracer)} trace events)", file=sys.stderr)


def _artifact_run(args: argparse.Namespace) -> Optional[ArtifactRun]:
    if not getattr(args, "out", None):
        return None
    return ArtifactRun(
        args.out,
        runs=args.runs,
        seed=args.seed,
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache", None) or None,
    )


# --- the generic dispatcher --------------------------------------------------

def _target_ci_from_args(args: argparse.Namespace) -> Optional[float]:
    """The validated --target-ci value (re-targets each experiment's
    registered rule), or None."""
    target = getattr(args, "target_ci", None)
    if target is None:
        return None
    if not 0 < target < math.inf:
        raise ExperimentError(f"--target-ci must be finite and > 0, got {target}")
    return target


def _model_family_from_args(args: argparse.Namespace) -> Optional[ModelFamily]:
    """The parsed --defect-model family, or None."""
    text = getattr(args, "defect_model", None)
    if not text:
        return None
    return family_from_spec(text)


def _criterion_from_args(args: argparse.Namespace):
    """The parsed --criterion instance, or None."""
    text = getattr(args, "criterion", None)
    if not text:
        return None
    # Deferred import: the criterion subsystem pulls in the fluidics
    # scheduler, which plain matching runs never need.
    from repro.functional import criterion_from_spec

    return criterion_from_spec(text)


def _execute(
    experiment: Experiment,
    args: argparse.Namespace,
    engine: Optional[SweepEngine],
) -> ExperimentResult:
    """Run one experiment as the flags ask.

    --defect-model/--criterion apply to the sweeps that accept the knob;
    the fixed-regime experiments run unchanged (per --help).
    """
    target_ci = _target_ci_from_args(args)
    adaptive = bool(getattr(args, "adaptive", False) or target_ci)
    knobs = {}
    model = _model_family_from_args(args)
    if model is not None and experiment.model_knob:
        knobs["model"] = model
    criterion = _criterion_from_args(args)
    if criterion is not None and experiment.criterion_knob:
        knobs["criterion"] = criterion
    log_event(
        _log, "run_start", name=experiment.name,
        runs=args.runs, seed=args.seed, adaptive=adaptive,
    )
    result = registry.execute(
        experiment,
        runs=args.runs,
        seed=args.seed,
        engine=engine,
        options={
            "mc_check": getattr(args, "mc_check", False),
            "adaptive": adaptive,
            "target_ci": target_ci,
        },
        knobs=knobs or None,
    )
    prov = result.provenance
    log_event(
        _log, "run_complete", name=experiment.name,
        effective=prov.mc_runs_effective,
        requested=prov.mc_runs_requested,
        digest=prov.digest,
    )
    return result


def _print_result(result: ExperimentResult, args: argparse.Namespace) -> None:
    """Render one experiment: the adaptive-budget note on stderr, then on
    stdout the report, epilogue lines and (with --chart) each chart after
    a blank line.  ``report_text()`` is the same renderer the artifact
    pipeline writes to ``report.txt``, keeping stdout and artifacts in
    lockstep."""
    prov = result.provenance
    if prov.stop_rule is not None and prov.mc_runs_requested:
        spent = 100.0 * prov.mc_runs_effective / prov.mc_runs_requested
        print(
            f"  adaptive budget: {prov.mc_runs_effective}/"
            f"{prov.mc_runs_requested} runs ({spent:.0f}% of flat) over "
            f"{len(prov.mc_points)} points",
            file=sys.stderr,
        )
    _emit(result.report_text())
    if getattr(args, "chart", False):
        for _label, chart in result.charts:
            _emit("")
            _emit(chart)


def _run_experiment(args: argparse.Namespace) -> int:
    experiment = registry.get(args.command)
    # Reject impossible exports and unwritable --out targets before
    # spending the Monte-Carlo budget.
    if args.csv and not experiment.tabular:
        return _fail(
            f"{experiment.name} has no tabular data to export "
            "(report-only experiment)"
        )
    if _model_family_from_args(args) is not None and not experiment.model_knob:
        return _fail(
            f"{experiment.name} does not accept --defect-model "
            "(its fault regime is part of the experiment definition)"
        )
    if _criterion_from_args(args) is not None and not experiment.criterion_knob:
        return _fail(
            f"{experiment.name} does not accept --criterion "
            "(its success predicate is part of the experiment definition)"
        )
    # Bad engine flags fail before --out is created.
    _target_ci_from_args(args)
    engine = _engine_from_args(args)
    try:
        run = _artifact_run(args)
        result = _execute(experiment, args, engine)
    finally:
        if engine is not None:
            engine.close()
    _print_result(result, args)
    if args.csv:
        write_csv(args.csv, result.headers, result.rows)
        _emit(f"wrote {args.csv}")
    if run is not None:
        run.add(result)
        manifest = run.finalize()
        _emit(f"wrote {manifest}")
    _write_trace(args, engine.tracer if engine is not None else None)
    return 0


def _all_worker(
    name: str, args: argparse.Namespace
) -> Tuple[ExperimentResult, List[dict]]:
    """One `repro all --jobs N` experiment, in a worker process.

    ``args`` is the parent's command line with serial engine settings:
    parallelism comes from running experiments side by side.  The worker
    runs the same :func:`_execute` the serial loop does and returns the
    real :class:`ExperimentResult` (experiments pickle as registry
    references) plus the trace events its engine recorded.  Printing,
    artifacts and the trace file stay with the parent, so workers report
    no progress.
    """
    _configure_logging_from_args(args)
    kwargs = _engine_kwargs(args)
    engine = SweepEngine(**kwargs) if kwargs else None
    result = _execute(registry.get(name), args, engine)
    tracer = engine.tracer if engine is not None else None
    return result, tracer.to_dict()["traceEvents"] if tracer is not None else []


def _run_all(args: argparse.Namespace) -> int:
    """Every registered experiment, printed and written in registry order.

    ``--jobs 1`` computes them in this process, one after another.  With
    ``--jobs N`` whole experiments run side by side in up to N worker
    processes, each on a serial engine, as units of a policy-free
    :class:`UnitRunner` (the point scheduler's loop): a failing
    experiment raises its own exception, and a worker that dies hard is
    survived by rebuilding the pool.  Stdout, artifacts and the merged
    trace come out exactly as the serial loop writes them.
    """
    if args.csv:
        return _fail(
            "`all` cannot write a single CSV; use --out DIR for "
            "per-experiment artifacts"
        )
    # A malformed flag must fail before any Monte-Carlo budget is spent.
    _target_ci_from_args(args)
    _model_family_from_args(args)
    _criterion_from_args(args)
    experiments = registry.all_experiments()
    runner = engine = None
    if args.jobs == 1:
        engine = _engine_from_args(args)
        tracer = engine.tracer if engine is not None else None
    else:
        _engine_kwargs(args)  # validate here; each worker builds its own
        tracer = Tracer() if args.trace else None
        # --log-file stays parent-only: one writer per file.
        worker_args = argparse.Namespace(
            **{**vars(args), "jobs": 1, "log_file": None}
        )
        runner = UnitRunner(
            default_executor(min(args.jobs, len(experiments))), None
        )
    done: Dict[int, Tuple[ExperimentResult, List[dict]]] = {}
    try:
        # Bad engine flags failed above, before --out is created.
        run = _artifact_run(args)
        if runner is not None:
            runner.executor.start(len(experiments))
            for index, experiment in enumerate(experiments):
                runner.submit(index, _all_worker, (experiment.name, worker_args))
        for index, experiment in enumerate(experiments):
            _emit(f"\n=== {experiment.name} ===")
            if runner is None:
                result = _execute(experiment, args, engine)
            else:
                while index not in done:
                    done.update(runner.collect())
                result, events = done.pop(index)
                if tracer is not None:
                    tracer.extend(events)
            _print_result(result, args)
            if run is not None:
                run.add(result)
    finally:
        if runner is not None:
            runner.executor.close()
        if engine is not None:
            engine.close()
    if run is not None:
        manifest = run.finalize()
        _emit(f"\nwrote {manifest} ({run.added} experiments)")
    _write_trace(args, tracer)
    return 0


def _run_list(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table

    if getattr(args, "json", False):
        # The same machine-readable schema `repro serve` answers
        # GET /experiments with — one schema, two transports.
        import json

        _emit(json.dumps(registry.listing(), indent=2))
        return 0

    rows = []
    for experiment in registry.all_experiments():
        rows.append(
            (
                experiment.name,
                experiment.paper_ref,
                experiment.budget.describe(),
                "csv,json" if experiment.tabular else "report",
                "yes" if experiment.has_charts else "-",
            )
        )
    _emit(
        format_table(
            ["experiment", "paper ref", "budget (--runs N)", "artifacts", "charts"],
            rows,
        )
    )
    return 0


def _run_show(args: argparse.Namespace) -> int:
    experiment = registry.get(args.experiment)
    if getattr(args, "json", False):
        import json

        _emit(json.dumps(experiment.as_dict(), indent=2))
        return 0
    _emit(experiment.describe())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    # Deferred import: the CLI stays asyncio-free unless serving.
    from repro.serve.app import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        out_dir=args.out or None,
        max_runs=args.max_runs,
        request_timeout=args.request_timeout,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
        cache_objects=args.cache_objects or None,
    )
    return serve_forever(config, engine=SweepEngine(**_engine_kwargs(args)))


def _run_cache_serve(args: argparse.Namespace) -> int:
    """`repro cache-serve`: just the content-addressed object endpoint.

    The same asyncio server as `repro serve`, with the /cache routes
    mounted over the given object directory; experiment/point routes stay
    available but run with a minimal engine.
    """
    from repro.serve.app import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_objects=args.dir,
        max_body_bytes=args.max_body_bytes,
    )
    return serve_forever(config)


def _run_gallery(args: argparse.Namespace) -> int:
    from repro.viz.gallery import write_gallery

    write_gallery(args.out, size=args.size)
    _emit(f"wrote {args.out}")
    return 0


def _run_recommend(args: argparse.Namespace) -> int:
    from repro.designs.selector import recommend_design

    result = recommend_design(
        target_yield=args.target_yield,
        p=args.p,
        n=args.n,
        runs=args.runs,
        seed=args.seed,
    )
    _emit(result.format_report())
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce Su/Chakrabarty/Pamula (DATE 2005): yield enhancement "
            "of digital microfluidic biochips via interstitial redundancy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        add_budget_options(p)
        add_render_options(p)
        add_engine_options(p)
        add_adaptive_options(p)
        add_model_options(p)
        add_criterion_options(p)
        add_observability_options(p)

    for experiment in registry.all_experiments():
        p = sub.add_parser(
            experiment.name,
            aliases=experiment.aliases,
            help=f"regenerate {experiment.paper_ref}: {experiment.title}",
        )
        common(p)
        p.set_defaults(handler=_run_experiment, command=experiment.name)

    p = sub.add_parser("all", help="regenerate every registered experiment")
    common(p)
    p.set_defaults(handler=_run_all)

    p = sub.add_parser("list", help="list the registered experiments")
    p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable registry (the schema "
             "`repro serve` answers GET /experiments with)",
    )
    p.set_defaults(handler=_run_list)

    p = sub.add_parser("show", help="describe one registered experiment")
    p.add_argument("experiment", help="experiment name or alias")
    p.add_argument(
        "--json", action="store_true",
        help="emit the experiment descriptor as JSON (the schema "
             "GET /experiments/{name} serves)",
    )
    p.set_defaults(handler=_run_show)

    serve = sub.add_parser(
        "serve",
        help="serve experiments and sweep points over HTTP "
             "(digest-coalesced, artifact-backed)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--max-runs", type=int, default=1_000_000, metavar="N",
        help="per-request Monte-Carlo ceiling (requests above it get a 400)",
    )
    serve.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="persist served experiment bundles into this artifact "
             "run directory",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="S",
        help="per-request compute deadline: a non-streaming request "
             "waiting longer than S seconds gets 503 + Retry-After "
             "instead of hanging (streams are exempt; their fold events "
             "are the liveness signal)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=32, metavar="N",
        help="admission ceiling on distinct in-flight computations; "
             "requests that would start computation N+1 get 503 + "
             "Retry-After (joining an existing computation is always "
             "admitted)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="on SIGTERM/SIGINT, stop accepting connections and give "
             "in-flight requests up to S seconds to finish",
    )
    serve.add_argument(
        "--cache-objects", type=str, default=None, metavar="DIR",
        help="also serve this content-addressed object tree under "
             "/cache/objects/{digest} (what `repro cache-serve` does "
             "standalone)",
    )
    add_engine_options(serve)
    # serve traces per request (POST /points {"trace": true}), not per run
    add_observability_options(serve, trace=False)
    serve.set_defaults(handler=_run_serve)

    cache_serve = sub.add_parser(
        "cache-serve",
        help="serve a shared content-addressed point/bundle cache over "
             "HTTP (GET/PUT/HEAD /cache/objects/{digest}; engines join "
             "it with --cache-url)",
    )
    cache_serve.add_argument("--host", default="127.0.0.1")
    cache_serve.add_argument("--port", type=int, default=8766)
    cache_serve.add_argument(
        "--dir", type=str, required=True, metavar="DIR",
        help="object tree root (the same layout --cache-url DIR reads "
             "directly over a shared filesystem)",
    )
    cache_serve.add_argument(
        "--max-body-bytes", type=int, default=1 << 20, metavar="N",
        help="largest accepted object upload",
    )
    add_observability_options(cache_serve, trace=False)
    cache_serve.set_defaults(handler=_run_cache_serve)

    gallery = sub.add_parser("gallery", help="write the HTML design gallery")
    gallery.add_argument("--out", default="designs.html")
    gallery.add_argument("--size", type=int, default=12)
    gallery.set_defaults(handler=_run_gallery)

    recommend = sub.add_parser(
        "recommend", help="pick the cheapest design for a target yield"
    )
    recommend.add_argument("--target-yield", type=float, required=True)
    recommend.add_argument("--p", type=float, required=True)
    recommend.add_argument("--n", type=int, default=100)
    add_budget_options(recommend, runs_default=4000)
    recommend.set_defaults(handler=_run_recommend)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging_from_args(args)
    try:
        _check_budget(args)
        return args.handler(args)
    except (ExperimentError, FaultModelError, CriterionError, ServeError) as exc:
        # User-facing mistakes (a bad flag or spec, an unknown experiment
        # name, an unwritable --out path, a corrupt manifest) get a clean
        # error, not a traceback.
        return _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
