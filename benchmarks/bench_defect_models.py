"""Defect-model subsystem: sampling throughput + clustered-vs-iid yield gap.

Two questions the new :mod:`repro.yieldsim.defects` subsystem must answer
at paper budgets (override with REPRO_BENCH_RUNS):

1. How fast does each spatial model draw survival matrices on the
   Figure 7 target (the flower-complete DTMB(1,6) array)?  All models
   must stay within a small constant factor of the i.i.d. baseline, or
   the scenario packs would dominate sweep wall time.
2. How much yield does the independence assumption overstate once
   defects actually cluster?  The fig7-clustered scenario at matched
   expected faults gives the headline gap.
"""

from __future__ import annotations

import time

from conftest import report

from repro.designs.interstitial import build_flower_chip
from repro.experiments import scenario_clustered
from repro.faults.injection import make_rng
from repro.yieldsim.defects import (
    FixedCount,
    IIDBernoulli,
    NegativeBinomialClustered,
    RadialGradient,
    SpotDefects,
    geometry_for,
)

#: Survival probability of the throughput draws (mid paper grid).
P = 0.95


def _models(geometry):
    return (
        IIDBernoulli(P),
        FixedCount(max(1, int(round((1 - P) * geometry.n_cells)))),
        SpotDefects.calibrate(geometry, 1 - P, radius=1),
        NegativeBinomialClustered(P, alpha=1.0),
        RadialGradient.calibrate(geometry, P, spread=0.06),
    )


def test_bench_sampling_throughput(benchmark, runs):
    """Per-model sample_batch throughput on the Figure 7 flower array."""
    chip = build_flower_chip(60)
    geometry = geometry_for(chip)
    geometry.ball(1)  # warm the ball cache like any sweep would
    models = _models(geometry)

    def sample_all():
        timings = {}
        for model in models:
            rng = make_rng(2005)
            start = time.perf_counter()
            alive = model.sample_batch(geometry, runs, rng)
            timings[model.describe()] = (
                time.perf_counter() - start,
                float((~alive).mean()),
            )
        return timings

    timings = benchmark.pedantic(sample_all, rounds=1, iterations=1)

    cells = geometry.n_cells
    lines = [f"{'model':<42} {'Mcells/s':>9}  {'kill frac':>9}"]
    for label, (seconds, kill) in timings.items():
        rate = runs * cells / max(seconds, 1e-9) / 1e6
        lines.append(f"{label:<42} {rate:9.1f}  {kill:9.4f}")
    report(
        f"Defect-model sampling throughput ({runs} runs x {cells} cells)",
        "\n".join(lines),
    )

    # Every model's expected kill fraction is calibrated to ~1-P, so the
    # benchmark doubles as a severity-matching check.
    for label, (_seconds, kill) in timings.items():
        assert abs(kill - (1 - P)) < 0.02, (label, kill)
    # No model may be catastrophically slower than the i.i.d. baseline.
    iid_time = timings[IIDBernoulli(P).describe()][0]
    for label, (seconds, _kill) in timings.items():
        assert seconds < 60 * max(iid_time, 1e-4), (label, seconds)


def test_bench_clustered_vs_iid_gap(benchmark, runs, engine):
    """The fig7-clustered scenario at paper budget: how optimistic is the
    independence assumption on the flower array once defects cluster?"""
    result = benchmark.pedantic(
        scenario_clustered.run_fig7_clustered,
        kwargs={"runs": runs, "engine": engine},
        rounds=1,
        iterations=1,
    )
    report("Figure 7: independent vs clustered defects", result.format_chart())

    # At high survival probability (the regime the paper argues in),
    # clustering can only hurt the flower repair: a single radius-1 spot
    # covers a primary and its only spare.  Aggregate over the top of the
    # grid so a quick CI budget stays off the noise floor.
    iid, clustered = result.yields["iid"], result.yields["spot r=1"]
    high_p_gaps = [iid[p] - clustered[p] for p in (0.97, 0.98, 0.99)]
    assert sum(high_p_gaps) / len(high_p_gaps) > 0.0
    # Matched severity: at p = 1.0 both regimes are exact and perfect.
    assert iid[1.0] == clustered[1.0] == 1.0
