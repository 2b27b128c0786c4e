"""Tests for the design-targeting experiment driver."""

from __future__ import annotations

import pytest

from repro.designs import selector
from repro.designs.catalog import TABLE1_DESIGNS
from repro.experiments import design_targeting
from repro.experiments.report import format_table


@pytest.fixture(scope="module")
def result():
    return design_targeting.run(
        n=60,
        targets=(0.50, 0.90),
        ps=(0.93, 0.99),
        runs=800,
        seed=11,
    )


class TestTargeting:
    def test_grid_complete(self, result):
        for p in result.ps:
            for target in result.targets:
                assert result.choice(p, target) in (
                    "DTMB(1,6)",
                    "DTMB(2,6)",
                    "DTMB(3,6)",
                    "DTMB(4,4)",
                    "-",
                )

    def test_easy_corner_is_cheap(self, result):
        assert result.choice(0.99, 0.50) == "DTMB(1,6)"

    def test_harder_targets_never_cheaper(self, result):
        order = {
            "DTMB(1,6)": 0,
            "DTMB(2,6)": 1,
            "DTMB(3,6)": 2,
            "DTMB(4,4)": 3,
            "-": 4,
        }
        for p in result.ps:
            ranks = [order[result.choice(p, t)] for t in result.targets]
            assert ranks == sorted(ranks)

    def test_report_renders(self, result):
        text = format_table(result.headers, result.rows)
        assert "Y>=0.90" in text
        assert "0.93" in text


# Captured from the selector that built a fresh repair structure per
# recommendation: sharing one per design must not move a single choice.
PINNED_2005 = {
    (0.90, 0.80): "DTMB(3,6)", (0.90, 0.90): "DTMB(4,4)",
    (0.90, 0.95): "-", (0.90, 0.99): "-",
    (0.93, 0.80): "DTMB(3,6)", (0.93, 0.90): "DTMB(3,6)",
    (0.93, 0.95): "DTMB(4,4)", (0.93, 0.99): "-",
    (0.96, 0.80): "DTMB(2,6)", (0.96, 0.90): "DTMB(3,6)",
    (0.96, 0.95): "DTMB(3,6)", (0.96, 0.99): "-",
    (0.99, 0.80): "DTMB(1,6)", (0.99, 0.90): "DTMB(2,6)",
    (0.99, 0.95): "DTMB(2,6)", (0.99, 0.99): "DTMB(3,6)",
}


def test_default_grid_pinned():
    assert design_targeting.run(runs=500, seed=2005).table == PINNED_2005


def test_one_repair_structure_per_design(monkeypatch):
    built = []

    class Counting(selector.RepairStructure):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(selector, "RepairStructure", Counting)
    selector._structure.cache_clear()
    try:
        for seed in (1, 2):
            design_targeting.run(runs=200, seed=seed)
    finally:
        selector._structure.cache_clear()
    assert len(built) == len(TABLE1_DESIGNS) == 4
