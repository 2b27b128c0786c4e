"""Figure 8's machinery: the maximum-matching kernel, microbenchmarked.

Figure 8 illustrates the bipartite model on a small instance; here we time
the actual algorithms on the repair graphs Monte-Carlo produces, plus a
large synthetic instance showing the asymptotic gap between Hopcroft-Karp
and Kuhn.
"""

from __future__ import annotations

import numpy as np

from conftest import report

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_with_primary_count
from repro.faults.injection import bernoulli_faults
from repro.reconfig.bipartite import (
    BipartiteGraph,
    hopcroft_karp,
    kuhn_matching,
    saturates_left,
)
from repro.reconfig.local import build_repair_graph


def _repair_graphs(count: int, p: float = 0.93, seed: int = 7):
    chip = build_with_primary_count(DTMB_2_6, 240).build()
    graphs = []
    for t in range(count):
        working = chip.copy()
        working.apply_fault_map(bernoulli_faults(working, p, seed=seed + t))
        graphs.append(build_repair_graph(working))
    return graphs


def test_bench_hopcroft_karp_on_repair_graphs(benchmark):
    graphs = _repair_graphs(200)

    def run_all():
        return [saturates_left(g, hopcroft_karp(g)) for g in graphs]

    verdicts = benchmark(run_all)
    report(
        "Figure 8 kernel",
        f"200 repair graphs, {sum(verdicts)} repairable (Hopcroft-Karp)",
    )
    assert len(verdicts) == 200


def test_bench_kuhn_on_repair_graphs(benchmark):
    graphs = _repair_graphs(200)

    def run_all():
        return [saturates_left(g, kuhn_matching(g)) for g in graphs]

    verdicts = benchmark(run_all)
    assert len(verdicts) == 200


def test_bench_large_synthetic_instance(benchmark):
    # A dense random bipartite graph far beyond any repair graph, to show
    # the kernel scales: 2000 x 2000 nodes, ~6 edges per left node.
    rng = np.random.default_rng(3)
    left = list(range(2000))
    right = [f"r{i}" for i in range(2000)]
    edges = [
        (u, f"r{v}")
        for u in left
        for v in rng.choice(2000, size=6, replace=False)
    ]
    graph = BipartiteGraph(left, right, edges)
    matching = benchmark(hopcroft_karp, graph)
    # Dense random graphs almost surely have near-perfect matchings.
    assert len(matching) > 1950
