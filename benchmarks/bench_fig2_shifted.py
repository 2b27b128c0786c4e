"""Figure 2: shifted-replacement cost of boundary spare rows vs interstitial."""

from __future__ import annotations

from conftest import report

from repro.experiments import fig2
from repro.experiments.report import format_table


def test_bench_fig2(benchmark):
    result = benchmark.pedantic(fig2.run, rounds=1, iterations=1)
    report(
        "Figure 2: shifted replacement cost",
        format_table(result.headers, result.rows),
    )

    rows = {row[0]: row for row in result.rows}
    # Module 1 (adjacent to the spare row): only itself reconfigured.
    assert rows["Module 1"][2] == 1
    assert rows["Module 1"][3] == 0
    # Module 3 (farthest): every module between it and the spare row is
    # dragged in — the paper's Figure 2(c) story.
    assert rows["Module 3"][2] == 3
    assert rows["Module 3"][3] == 2
    # Interstitial redundancy repairs the same fault at constant cost.
    for row in result.rows:
        assert row[5] == 1 and row[6] == 0
    # The shifted cost grows monotonically with distance from the spares.
    cells = [int(row[4]) for row in result.rows]
    assert cells == sorted(cells, reverse=True)
