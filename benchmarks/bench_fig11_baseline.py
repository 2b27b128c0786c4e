"""Figure 11: the fabricated 108-cell chip with no spares (Y = p^108)."""

from __future__ import annotations

from conftest import report

from repro.experiments import fig11
from repro.experiments.report import format_table


def test_bench_fig11(benchmark):
    result = benchmark.pedantic(fig11.run, rounds=1, iterations=1)
    report(
        "Figure 11: non-redundant baseline",
        format_table(result.headers, result.rows),
    )

    # The paper's headline number, exactly: 0.99^108 = 0.3378.
    assert abs(result.yield_at(0.99) - 0.3378) < 5e-4
    # "Such low yield makes the first biochip design unsuitable for future
    # mass fabrication": even at 99.9%-reliable cells it is only ~90%.
    assert result.yields[0] < 0.001  # p = 0.90: essentially zero
    assert result.yield_at(1.0) == 1.0
