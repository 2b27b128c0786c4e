"""Figures 3-6: generation + structural verification of every DTMB layout."""

from __future__ import annotations

from conftest import report

from repro.experiments import figs3to6, registry


def test_bench_figs3to6(benchmark):
    result = benchmark.pedantic(
        figs3to6.run, kwargs={"size": 16}, rounds=1, iterations=1
    )
    charts = registry.get("figs3to6").render_charts(result)
    report(
        "Figures 3-6: DTMB layouts (verified)",
        "\n\n".join([result.format_report(), *(chart for _, chart in charts)]),
    )

    by_name = {row[0]: row for row in result.rows}
    # Definition 1 holds empirically for every catalog design.
    assert (by_name["DTMB(1,6)"][1], by_name["DTMB(1,6)"][2]) == (1, 6)
    assert (by_name["DTMB(2,6)"][1], by_name["DTMB(2,6)"][2]) == (2, 6)
    assert (by_name["DTMB(2,6)alt"][1], by_name["DTMB(2,6)alt"][2]) == (2, 6)
    assert (by_name["DTMB(3,6)"][1], by_name["DTMB(3,6)"][2]) == (3, 6)
    assert (by_name["DTMB(4,4)"][1], by_name["DTMB(4,4)"][2]) == (4, 4)
