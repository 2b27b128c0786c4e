"""Ablation: hexagonal vs square electrode arrays (the Section 3 claim)."""

from __future__ import annotations

from conftest import report

from repro.experiments import ablation_hexsquare, registry
from repro.experiments.report import format_table


def test_bench_ablation_hexsquare(benchmark):
    result = benchmark.pedantic(
        ablation_hexsquare.run,
        kwargs={"runs": 400},
        rounds=1,
        iterations=1,
    )
    epilogue = registry.get("ablation-hexsquare").render_epilogue(result)
    report(
        "Ablation: hexagonal vs square electrodes",
        "\n".join((format_table(result.headers, result.rows), *epilogue)),
    )

    # The paper's expectation: close-packed hex arrays transport more
    # effectively.  Hex routes are measurably shorter on average...
    assert result.route_advantage > 1.05
    # ...and six-connectivity survives cell knock-outs better than four.
    assert (
        result.connected_after_faults_hex
        >= result.connected_after_faults_square - 0.02
    )
