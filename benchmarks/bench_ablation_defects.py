"""Ablation: independent vs clustered defects at equal expected severity."""

from __future__ import annotations

from conftest import report

from repro.experiments import ablation_defects
from repro.experiments.report import format_table


def test_bench_ablation_defects(benchmark):
    result = benchmark.pedantic(
        ablation_defects.run,
        kwargs={"runs": 800},
        rounds=1,
        iterations=1,
    )
    report("Ablation: defect spatial models", format_table(result.headers, result.rows))

    gaps = result.gaps()
    # Clustered spot defects defeat local reconfiguration more often than
    # independent failures of the same expected severity: the paper's
    # independence assumption is optimistic for particle-dominated fabs.
    assert all(g > 0.0 for g in gaps)
    # And the gap is substantial at higher severities.
    assert gaps[-1] > 0.15
