"""The matching kernel's packed peel at the paper's budget.

``classify_repairable`` peels every fault map with bit algebra over runs
packed eight per byte, and only the runs the peel freezes reach the Hall
bounds and Kuhn.  Here the Figure 9 designs at n = 120 draw ``runs``
i.i.d. fault maps per survival probability of the paper's grid,
classified in the kernel's own cache-sized slices.  Every slice's
verdicts and ``ScreenStats`` counters must equal the per-entry peel loop
kept as the reference in ``tests/test_kernel_prescreen.py``.  The report
gives the share of faulty runs the packed peel decided and both
kernels' classify time.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np

from conftest import report

from repro.designs.interstitial import build_with_primary_count
from repro.experiments.fig9 import DEFAULT_DESIGNS
from repro.yieldsim.defects import IIDBernoulli
from repro.yieldsim.kernel import (
    _CLASSIFY_BYTES,
    RepairStructure,
    classify_repairable,
)
from repro.yieldsim.sweeps import DEFAULT_P_GRID

N = 120


def _reference_classify():
    """``reference_classify`` from the tier-1 test module, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "tests" / "test_kernel_prescreen.py"
    spec = importlib.util.spec_from_file_location("kernel_prescreen_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_classify


def test_bench_kernel_screen(runs):
    reference_classify = _reference_classify()
    lines = [f"{'design':<12}{'runs':>9}{'faulty':>9}{'decided':>9}"
             f"{'of faulty':>11}{'kernel s':>10}{'ref s':>8}"]
    for design in DEFAULT_DESIGNS:
        struct = RepairStructure(build_with_primary_count(design, N).build())
        sub = max(1, _CLASSIFY_BYTES // struct.n_cells)
        total = faulty_runs = decided = 0
        kernel_s = reference_s = 0.0
        for i, p in enumerate(DEFAULT_P_GRID):
            alive = IIDBernoulli(p).sample_batch(
                struct.geometry, runs, np.random.default_rng(2005 + i)
            )
            for start in range(0, runs, sub):
                rows = alive[start:start + sub]
                t0 = time.perf_counter()
                got, stats = classify_repairable(struct, rows)
                t1 = time.perf_counter()
                want, want_stats = reference_classify(struct, rows)
                t2 = time.perf_counter()
                kernel_s += t1 - t0
                reference_s += t2 - t1
                assert (got == want).all(), (design.name, p, start)
                assert stats.as_dict() == want_stats.as_dict(), (design.name, p, start)

                decided += (stats.bad_dead_end + stats.bad_forced_conflict
                            + stats.good_peeled)
                faulty_runs += stats.runs - stats.zero_fault
                total += len(rows)
        share = decided / faulty_runs if faulty_runs else 1.0
        lines.append(
            f"{design.name:<12}{total:>9}{faulty_runs:>9}{decided:>9}"
            f"{share:>11.1%}{kernel_s:>10.2f}{reference_s:>8.2f}"
        )
    report(f"Packed peel, Figure 9 designs at n={N}", "\n".join(lines))
