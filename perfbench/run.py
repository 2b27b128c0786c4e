"""The repository benchmark: one workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``sweep-matching``, ``pipeline``, ``serve`` (see
``perfbench/README.md``).  The run times set-up SETUP_SAMPLES times, then
repeats passes of the workload until ``--seconds`` have elapsed (at least
one).  With ``--trace 0`` every pass is untraced and the end-to-end
metrics are medians over passes.  With ``--trace 1`` untraced and traced
passes alternate; the per-layer metrics come from the traced ones (medians
over passes) and ``trace_overhead_frac`` compares the two.

Every output is checked against ``perfbench/refs``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.perfbench/`` in
the repository root and are removed on exit, except the Chrome trace of
the last traced pass (``.perfbench/trace-<workload>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("wall_s", "s"),
    ("mc_runs_per_s", "1/s"),
    ("warm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_UNITS = (
    ("defects.sample_s", "s"), ("defects.rows", "count"),
    ("kernel.classify_s", "s"), ("kernel.runs", "count"),
    ("kernel.residue_runs", "count"), ("kernel.screened_frac", "frac"),
    ("funnel.evaluate_s", "s"), ("funnel.self_s", "s"),
    ("funnel.runs", "count"), ("funnel.residue_runs", "count"),
    ("funnel.residue_frac", "frac"), ("funnel.residue_ok_frac", "frac"),
    ("reconfig.plan_s", "s"), ("reconfig.plans", "count"),
    ("fluidics.schedule_s", "s"), ("fluidics.schedules", "count"),
    ("fluidics.concurrent_s", "s"), ("fluidics.concurrent_plans", "count"),
    ("scheduler.run_s", "s"), ("scheduler.self_s", "s"),
    ("scheduler.units", "count"),
    ("executors.pools", "count"), ("executors.start_s", "s"),
    ("executors.submit_s", "s"), ("executors.wait_s", "s"),
    ("executors.units", "count"),
    ("cache.load_s", "s"), ("cache.loads", "count"),
    ("cache.store_s", "s"), ("cache.stores", "count"),
    ("cache.hit_frac", "frac"), ("cache.remote_hit_frac", "frac"),
    ("cache.bytes_up", "bytes"), ("cache.bytes_down", "bytes"),
    ("artifacts.write_s", "s"), ("artifacts.bytes", "bytes"),
    ("serve.req_per_s", "1/s"),
    ("serve.hit_p50_ms", "ms"), ("serve.hit_p99_ms", "ms"),
    ("serve.hit_samples", "count"),
    ("serve.cold_p50_ms", "ms"), ("serve.cold_p90_ms", "ms"),
    ("serve.cold_samples", "count"),
    ("serve.coalesced_frac", "frac"), ("serve.cache_hit_frac", "frac"),
    ("serve.rejected_frac", "frac"), ("serve.client_cpu_frac", "frac"),
    ("obs.timings_ratio", "ratio"),
    ("machine.slowdown", "ratio"),
    ("raw.wall_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("trace.compute_cover_frac", "frac"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- set-up ---------------------------------------------------------------------

def probe_setup(name: str, index: int, tmp: str) -> list:
    """Set-up seconds, at reference speed, from SETUP_SAMPLES fresh
    interpreters."""
    from harness import SpeedClock

    samples = []
    for _ in range(SETUP_SAMPLES):
        clock = SpeedClock(all_cpus=True)
        with clock.segment():
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py"), name, str(index), tmp],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
            )
        setup_s = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(setup_s * clock.ref_s / clock.raw_s)
    return samples


# -- per-layer metrics ----------------------------------------------------------

def merge_summaries(*summaries) -> dict:
    spans: dict = {}
    counts: dict = {}
    for summary in summaries:
        if not summary:
            continue
        for name, agg in summary["spans"].items():
            into = spans.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in into:
                into[key] += agg[key]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    return {"spans": spans, "counts": counts}


def layer_metrics(summary: dict, result, untraced, names) -> dict:
    """Every per-layer metric of one traced pass.

    The serve latencies and request rate are user-visible numbers, so they
    come from the untraced passes, pooled.
    """
    from harness import COMPUTE_SPANS, median, percentile

    spans = summary["spans"]
    counts = {**result.counts, **summary["counts"]}

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def count(name):
        return counts.get(name, 0.0)

    extra = result.extra
    hit_ms = [x for r in untraced for x in r.extra.get("hit_ms", ())]
    cold_ms = [x for r in untraced for x in r.extra.get("cold_ms", ())]
    untraced_wall = median([r.wall_s for r in untraced])
    raw_wall = median([r.raw_wall_s for r in untraced])
    values = {
        "defects.sample_s": busy("defects.sample"),
        "defects.rows": count("defects.rows"),
        "kernel.classify_s": busy("kernel.classify"),
        "kernel.runs": count("kernel.runs"),
        "kernel.residue_runs": count("kernel.residue_runs"),
        "kernel.screened_frac": ratio(
            count("kernel.runs") - count("kernel.residue_runs"), count("kernel.runs")),
        "funnel.evaluate_s": busy("funnel.evaluate"),
        "funnel.self_s": self_s("funnel.evaluate"),
        "funnel.runs": count("funnel.runs"),
        "funnel.residue_runs": count("funnel.residue_runs"),
        "funnel.residue_frac": ratio(count("funnel.residue_runs"), count("funnel.runs")),
        "funnel.residue_ok_frac": ratio(
            count("funnel.residue_ok"), count("funnel.residue_runs")),
        "reconfig.plan_s": busy("reconfig.plan"),
        "reconfig.plans": calls("reconfig.plan"),
        "fluidics.schedule_s": busy("fluidics.schedule"),
        "fluidics.schedules": calls("fluidics.schedule"),
        "fluidics.concurrent_s": busy("fluidics.concurrent"),
        "fluidics.concurrent_plans": calls("fluidics.concurrent"),
        "scheduler.run_s": busy("scheduler.run"),
        "scheduler.self_s": self_s("scheduler.run"),
        "scheduler.units": count("scheduler.units"),
        "executors.pools": count("executors.pools"),
        "executors.start_s": busy("executors.start"),
        "executors.submit_s": busy("executors.submit"),
        "executors.wait_s": busy("executors.wait"),
        "executors.units": calls("executors.submit"),
        "cache.load_s": busy("cache.load"),
        "cache.loads": count("cache.loads"),
        "cache.store_s": busy("cache.store"),
        "cache.stores": calls("cache.store"),
        "cache.hit_frac": ratio(count("cache.hits"), count("cache.loads")),
        "cache.remote_hit_frac": ratio(
            count("cache.remote_hits"), count("cache.local_misses")),
        "cache.bytes_up": count("cache.bytes_up"),
        "cache.bytes_down": count("cache.bytes_down"),
        "artifacts.write_s": busy("artifacts.write"),
        "artifacts.bytes": count("artifacts.bytes"),
        "serve.req_per_s": median(
            [ratio(r.extra.get("requests", 0), r.raw_wall_s) for r in untraced]),
        "serve.hit_p50_ms": percentile(hit_ms, 50),
        "serve.hit_p99_ms": percentile(hit_ms, 99),
        "serve.hit_samples": len(hit_ms),
        "serve.cold_p50_ms": percentile(cold_ms, 50),
        "serve.cold_p90_ms": percentile(cold_ms, 90),
        "serve.cold_samples": len(cold_ms),
        "serve.coalesced_frac": ratio(
            extra.get("coalesced", 0), extra.get("pair_requests", 0)),
        "serve.cache_hit_frac": extra.get("cache_hit_frac", 0.0),
        "serve.rejected_frac": ratio(extra.get("rejected", 0), extra.get("requests", 0)),
        "serve.client_cpu_frac": extra.get("client_cpu_frac", 0.0),
        "obs.timings_ratio": ratio(count("obs.timings_wall_s"), busy("scheduler.run")),
        "machine.slowdown": ratio(raw_wall, untraced_wall),
        "raw.wall_s": raw_wall,
        "trace_overhead_frac": ratio(result.wall_s, untraced_wall) - 1.0,
        "trace.compute_cover_frac": ratio(
            sum(self_s(name) for name in COMPUTE_SPANS), result.raw_wall_s),
    }
    for name in names:
        values[f"registry.execute_s.{name}"] = busy(f"registry.execute:{name}")
    return values


def per_layer_units(names):
    return LAYER_UNITS + tuple((f"registry.execute_s.{n}", "s") for n in names)


# -- the run --------------------------------------------------------------------

def measure(workload, seconds: float, trace: bool):
    """Repeat passes until ``seconds`` elapse and the workload has its
    ``min_passes``; returns (untraced, traced)."""
    from harness import instrument

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        # Alternate which kind goes first (ABBA), so a drift in machine
        # speed does not bias trace_overhead_frac.
        for traced_now in ((False, True) if len(untraced) % 2 == 0 else (True, False)):
            if not traced_now:
                untraced.append(workload.run_pass())
            elif trace:
                with instrument(workload.layers) as recorder:
                    result = workload.run_pass(recorder)
                traced.append((result, recorder))
        if time.perf_counter() >= deadline and len(untraced) >= workload.min_passes:
            return untraced, traced


def run(args, tmp: str) -> dict:
    import workloads
    from harness import machine_facts, median, peak_rss_mb

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    index = args.seed % workloads.INPUT_SETS
    workload = workloads.make_workload(args.workload, index, tmp, bool(args.trace))
    if workload.expected is None:
        raise SystemExit(f"no committed references for {args.workload}")

    setup = [] if args.workload == "serve" else probe_setup(args.workload, index, tmp)
    attempted, failed = workload.prepare()
    untraced, traced = measure(workload, args.seconds, bool(args.trace))
    if args.workload == "serve":
        setup = workload.setup_samples(SETUP_SAMPLES)

    for result in untraced + [r for r, _ in traced]:
        attempted += result.attempted
        failed += result.failed
    # A traced pass must reproduce the untraced outputs exactly.
    reference = untraced[0].outputs
    mismatched = sum(1 for r in untraced[1:] + [r for r, _ in traced]
                     if r.outputs != reference)
    failed += mismatched

    end_to_end = {
        "wall_s": median([r.wall_s for r in untraced]),
        "mc_runs_per_s": median([r.mc_runs / r.wall_s for r in untraced]),
        "warm_wall_s": median([r.warm_wall_s for r in untraced]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: {"value": end_to_end[name], "unit": unit}
               for name, unit in END_TO_END}
    lines = [f"# perfbench {args.workload} seed={args.seed} input_set={index} "
             f"passes={len(untraced)} traced_passes={len(traced)}",
             f"# machine {json.dumps(machine_facts(), sort_keys=True)}",
             "# per pass: wall_s " + " ".join(f"{r.wall_s:.4f}" for r in untraced)
             + " | raw wall_s " + " ".join(f"{r.raw_wall_s:.4f}" for r in untraced)
             + " | warm_wall_s " + " ".join(f"{r.warm_wall_s:.4f}" for r in untraced)
             + " | setup_s " + " ".join(f"{s:.4f}" for s in setup)]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]

    if args.trace:
        from repro.experiments import registry

        names = registry.names()
        per_pass = [
            layer_metrics(merge_summaries(rec.summary(), res.extra.get("server")),
                          res, untraced, names)
            for res, rec in traced
        ]
        traced[-1][1].write_chrome_trace(
            os.path.join(ROOT, ".perfbench", f"trace-{args.workload}.json"))
        metrics = {name: {"value": median([p[name] for p in per_pass]), "unit": unit}
                   for name, unit in per_layer_units(names)}
        lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program sources under src/repro", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    os.environ["TMPDIR"] = tmp  # inherited by probes, the server and pools
    tempfile.tempdir = tmp
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
