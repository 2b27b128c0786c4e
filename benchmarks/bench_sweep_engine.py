"""Sweep engine: screening-kernel speedup and serial/parallel identity.

The acceptance target for the engine: ``survival_sweep`` at the paper
budget (10 000 runs per point on the Figure 7 survival grid) must beat the
seed implementation — per-run Python Kuhn matching inside
``YieldSimulator``, which is preserved verbatim as the brute-force
reference — by at least 3x.  At reduced budgets (``REPRO_BENCH_RUNS``)
the fixed vectorization overhead dominates, so only correctness and a
sanity margin are asserted.
"""

from __future__ import annotations

import time

from conftest import report

from repro.designs.catalog import DTMB_1_6
from repro.designs.interstitial import build_with_primary_count
from repro.yieldsim.montecarlo import YieldSimulator
from repro.yieldsim.sweeps import DEFAULT_P_GRID, survival_sweep
from repro.yieldsim.engine import SweepEngine

import numpy as np

#: The Figure 7 design and array size whose Monte-Carlo check the paper plots.
FIG7_N = 60


def _seed_survival_sweep(ps, runs, seed):
    """The seed implementation of survival_sweep, verbatim: build the
    chip, then run per-point brute-force YieldSimulator matching."""
    chip = build_with_primary_count(DTMB_1_6, FIG7_N).build()
    sim = YieldSimulator(chip)
    counter = 0
    out = []
    for p in ps:
        counter += 1
        out.append(sim.run_survival(p, runs=runs, seed=seed + counter))
    return out


def test_bench_engine_speedup(benchmark, runs):
    t0 = time.perf_counter()
    reference = _seed_survival_sweep(DEFAULT_P_GRID, runs, 2005)
    t_seed = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = benchmark.pedantic(
        survival_sweep,
        args=([DTMB_1_6], [FIG7_N], DEFAULT_P_GRID),
        kwargs={"runs": runs, "seed": 2005},
        rounds=1,
        iterations=1,
    )
    t_engine = time.perf_counter() - t0

    speedup = t_seed / max(t_engine, 1e-9)
    report(
        "Sweep engine speedup (Fig. 7 grid)",
        f"seed {t_seed:.2f}s  engine {t_engine:.2f}s  ->  {speedup:.1f}x "
        f"({runs} runs/point, {len(DEFAULT_P_GRID)} points)",
    )

    # The funnel is exact, so engine yields agree with brute force within
    # the float32-vs-float64 sampling difference (pure Monte-Carlo noise).
    sigma = max(0.02, 4.0 * (0.25 / runs) ** 0.5)
    for ref, point in zip(reference, points):
        assert abs(ref.value - point.yield_value) < sigma

    # With float64 draws the engine reproduces the seed RNG stream exactly.
    eng = SweepEngine(dtype=np.float64)
    exact = survival_sweep(
        [DTMB_1_6], [FIG7_N], DEFAULT_P_GRID, runs=runs, seed=2005, engine=eng
    )
    assert [pt.estimate.successes for pt in exact] == [
        ref.successes for ref in reference
    ]

    # The 3x bar applies at paper-scale budgets where throughput matters.
    if runs >= 5000:
        assert speedup >= 3.0, f"engine only {speedup:.2f}x faster than seed"
    else:
        # Quick budgets are overhead-dominated; just require "not worse".
        assert speedup >= 0.7, f"engine much slower than seed at quick budget"


def test_bench_serial_parallel_identical(runs):
    budget = min(runs, 2000)
    serial = survival_sweep(
        [DTMB_1_6], [FIG7_N], DEFAULT_P_GRID, runs=budget, seed=7,
        engine=SweepEngine(jobs=1),
    )
    parallel = survival_sweep(
        [DTMB_1_6], [FIG7_N], DEFAULT_P_GRID, runs=budget, seed=7,
        engine=SweepEngine(jobs=2),
    )
    assert [pt.estimate.successes for pt in serial] == [
        pt.estimate.successes for pt in parallel
    ]
