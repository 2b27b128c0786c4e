"""Ablation: matching algorithm choice (greedy vs maximum matching)."""

from __future__ import annotations

from conftest import report

from repro.experiments import ablation_matching, registry
from repro.experiments.report import format_table


def test_bench_ablation_matching(benchmark):
    result = benchmark.pedantic(
        ablation_matching.run,
        kwargs={"runs": 1500},
        rounds=1,
        iterations=1,
    )
    epilogue = registry.get("ablation-matching").render_epilogue(result)
    report(
        "Ablation: matching algorithms",
        "\n".join((format_table(result.headers, result.rows), *epilogue)),
    )

    # Both maximum-matching algorithms agree exactly, always.
    assert result.kuhn_hk_mismatches == 0
    assert result.repaired["kuhn"] == result.repaired["hopcroft-karp"]
    # Greedy under-repairs: it scraps chips the maximum matching saves.
    assert result.repaired["greedy"] < result.repaired["hopcroft-karp"]
    assert result.disagreements > 0
