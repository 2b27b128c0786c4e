"""Tests for the from-scratch bipartite matching algorithms.

Correctness is established three ways: hand-built instances with known
optima, cross-checks against networkx's Hopcroft-Karp on random graphs,
and a hypothesis property comparing Kuhn and Hopcroft-Karp sizes on
arbitrary instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReconfigurationError
from repro.reconfig.bipartite import (
    MATCHING_ALGORITHMS,
    BipartiteGraph,
    greedy_matching,
    hopcroft_karp,
    kuhn_matching,
    maximum_matching,
    saturates_left,
)


try:
    # Paid once here, so Hypothesis never times the first cross-check's
    # import of networkx against its per-example deadline.
    import networkx  # noqa: F401
except ImportError:
    pass


def graph_from_adj(adj):
    left = list(adj)
    right = sorted({v for vs in adj.values() for v in vs})
    edges = [(u, v) for u, vs in adj.items() for v in vs]
    return BipartiteGraph(left, right, edges)


class TestConstruction:
    def test_duplicate_nodes_collapsed(self):
        g = BipartiteGraph(["a", "a"], ["x"], [("a", "x"), ("a", "x")])
        assert g.left == ("a",)
        assert g.edge_count == 1

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ReconfigurationError):
            BipartiteGraph(["a"], ["a"], [])

    def test_edges_must_reference_nodes(self):
        with pytest.raises(ReconfigurationError):
            BipartiteGraph(["a"], ["x"], [("b", "x")])
        with pytest.raises(ReconfigurationError):
            BipartiteGraph(["a"], ["x"], [("a", "y")])

    def test_degree(self):
        g = graph_from_adj({"a": ["x", "y"], "b": ["y"]})
        assert g.degree("a") == 2
        assert g.degree("b") == 1


class TestKnownInstances:
    def test_perfect_matching_exists(self):
        g = graph_from_adj({"a": ["x"], "b": ["y"], "c": ["z"]})
        for name in ("kuhn", "hopcroft-karp"):
            m = maximum_matching(g, name)
            assert saturates_left(g, m)

    def test_augmenting_path_needed(self):
        # Greedy (in insertion order) grabs x for a, stranding b unless the
        # algorithm augments: a->y frees x for b.
        g = graph_from_adj({"a": ["x", "y"], "b": ["x"]})
        greedy = greedy_matching(g)
        assert not saturates_left(g, greedy)
        for name in ("kuhn", "hopcroft-karp"):
            assert saturates_left(g, maximum_matching(g, name))

    def test_structural_deficiency(self):
        # Three left nodes share two right nodes: Hall's condition fails.
        g = graph_from_adj({"a": ["x", "y"], "b": ["x", "y"], "c": ["x", "y"]})
        for name in ("kuhn", "hopcroft-karp"):
            m = maximum_matching(g, name)
            assert len(m) == 2
            assert not saturates_left(g, m)

    def test_isolated_left_node(self):
        g = BipartiteGraph(["a", "b"], ["x"], [("a", "x")])
        m = hopcroft_karp(g)
        assert m == {"a": "x"}
        assert not saturates_left(g, m)

    def test_empty_graph(self):
        g = BipartiteGraph([], [], [])
        assert hopcroft_karp(g) == {}
        assert kuhn_matching(g) == {}
        assert saturates_left(g, {})

    def test_long_augmenting_chain(self):
        # Path graph forcing a length-5 augmenting path.
        adj = {
            0: ["r0"],
            1: ["r0", "r1"],
            2: ["r1", "r2"],
            3: ["r2", "r3"],
        }
        g = graph_from_adj(adj)
        for name in ("kuhn", "hopcroft-karp"):
            assert saturates_left(g, maximum_matching(g, name))

    def test_unknown_algorithm_rejected(self):
        g = BipartiteGraph([], [], [])
        with pytest.raises(ReconfigurationError):
            maximum_matching(g, "hungarian-dance")


class TestMatchingValidity:
    @staticmethod
    def assert_valid(g, matching):
        used = set()
        for u, v in matching.items():
            assert v in g.adj[u]
            assert v not in used
            used.add(v)

    def test_all_algorithms_produce_valid_matchings(self):
        adj = {i: [f"r{(i + k) % 7}" for k in range(3)] for i in range(7)}
        g = graph_from_adj(adj)
        for name, algo in MATCHING_ALGORITHMS.items():
            self.assert_valid(g, algo(g))


# Random small bipartite instances as adjacency dicts.
adj_strategy = st.dictionaries(
    st.integers(0, 9),
    st.lists(st.integers(100, 109), max_size=5, unique=True),
    max_size=10,
)


class TestProperties:
    @given(adj_strategy)
    @settings(max_examples=120)
    def test_kuhn_equals_hopcroft_karp_size(self, adj):
        g = graph_from_adj(adj)
        assert len(kuhn_matching(g)) == len(hopcroft_karp(g))

    @given(adj_strategy)
    @settings(max_examples=120)
    def test_greedy_never_beats_maximum(self, adj):
        g = graph_from_adj(adj)
        assert len(greedy_matching(g)) <= len(hopcroft_karp(g))

    @given(adj_strategy)
    @settings(max_examples=120)
    def test_greedy_is_maximal_at_least_half(self, adj):
        # A maximal matching is at least half a maximum one.
        g = graph_from_adj(adj)
        assert 2 * len(greedy_matching(g)) >= len(hopcroft_karp(g))

    @given(adj_strategy)
    @settings(max_examples=60)
    def test_matches_networkx(self, adj):
        import networkx as nx

        g = graph_from_adj(adj)
        nxg = nx.Graph()
        nxg.add_nodes_from(g.left, bipartite=0)
        nxg.add_nodes_from(g.right, bipartite=1)
        for u, vs in g.adj.items():
            nxg.add_edges_from((u, v) for v in vs)
        nx_size = len(
            nx.bipartite.maximum_matching(nxg, top_nodes=g.left)
        ) // 2
        assert len(hopcroft_karp(g)) == nx_size
