"""Design targeting: cheapest adequate architecture per (p, target) point.

Operationalizes the paper's claim that "biochips with different levels of
redundancy can be designed to target given yield levels and manufacturing
processes."
"""

from __future__ import annotations

from conftest import report

from repro.experiments import design_targeting
from repro.experiments.report import format_table


def test_bench_design_targeting(benchmark, runs):
    result = benchmark.pedantic(
        design_targeting.run,
        kwargs={"runs": max(1000, runs // 3)},
        rounds=1,
        iterations=1,
    )
    report("Design targeting (n=100)", format_table(result.headers, result.rows))

    # Good process + modest target: the cheapest design suffices.
    assert result.choice(0.99, 0.80) == "DTMB(1,6)"
    # Poor process + aggressive target: needs heavy redundancy or is
    # outright infeasible with the catalog.
    hard = result.choice(0.90, 0.99)
    assert hard in ("DTMB(4,4)", "-")
    # Moving toward worse processes never selects a *cheaper* design at a
    # fixed target (redundancy requirements are monotone).
    order = {"DTMB(1,6)": 0, "DTMB(2,6)": 1, "DTMB(3,6)": 2, "DTMB(4,4)": 3, "-": 4}
    for target in result.targets:
        ranks = [order[result.choice(p, target)] for p in sorted(result.ps)]
        assert ranks == sorted(ranks, reverse=True)
