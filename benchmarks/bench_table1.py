"""Table 1: redundancy ratios of the four DTMB architectures."""

from __future__ import annotations

from fractions import Fraction

from conftest import report

from repro.designs.catalog import TABLE1_DESIGNS, table1_rows
from repro.experiments import table1
from repro.experiments.report import format_table


def test_bench_table1(benchmark):
    result = benchmark.pedantic(table1.run, rounds=1, iterations=1)
    report("Table 1: redundancy ratios", format_table(result.headers, result.rows))

    # The paper's Table 1, exactly.
    expected = {
        "DTMB(1,6)": Fraction(1, 6),
        "DTMB(2,6)": Fraction(1, 3),
        "DTMB(3,6)": Fraction(1, 2),
        "DTMB(4,4)": Fraction(1, 1),
    }
    assert dict(table1_rows()) == expected

    # Finite arrays converge to the asymptote as they grow.
    for row in result.rows:
        target = float(row[1])
        largest = float(row[-1])
        assert abs(largest - target) < 0.01
