"""Tests for the exact matching solvers (blossom MCM, weighted blossom MWM)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_integer_weights,
    star_graph,
)
from repro.graph import Graph
from repro.matching import (
    is_matching,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
)
from tests._oracles import brute_force_mwm


def weighted_graphs():
    return st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.integers(1, 12)
        ).filter(lambda e: e[0] != e[1]),
        max_size=22,
    ).map(
        lambda edges: Graph.from_weighted_edges(
            [(u, v, float(w)) for u, v, w in edges]
        )
    )


class TestMCMStructured:
    def test_empty(self):
        assert max_cardinality_matching(Graph()) == set()

    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)])
        assert max_cardinality_matching(g) == {(0, 1)}

    @pytest.mark.parametrize(
        "graph, size",
        [
            (path_graph(6), 3),
            (path_graph(7), 3),
            (cycle_graph(9), 4),  # odd cycle needs a blossom
            (cycle_graph(10), 5),
            (complete_graph(7), 3),
            (complete_bipartite_graph(3, 5), 3),
            (star_graph(9), 1),
            (grid_graph(4, 4), 8),
        ],
        ids=["P6", "P7", "C9", "C10", "K7", "K35", "star", "grid"],
    )
    def test_known_sizes(self, graph, size):
        m = max_cardinality_matching(graph)
        assert is_matching(graph, m)
        assert len(m) == size

    def test_petersen_graph_perfect_matching(self):
        # The Petersen graph: the classic blossom stress test.
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        g = Graph.from_edges(outer + inner + spokes)
        assert len(max_cardinality_matching(g)) == 5

    def test_nested_triangles_blossom(self):
        # Two triangles sharing chains: nested blossom contraction.
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        m = max_cardinality_matching(g)
        assert is_matching(g, m)
        assert len(m) == 3


class TestMCMRandom:
    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        ).map(Graph.from_edges)
    )
    @settings(max_examples=80, deadline=None)
    def test_against_networkx(self, g):
        m = max_cardinality_matching(g)
        assert is_matching(g, m)
        expected = nx.max_weight_matching(g.to_networkx(), maxcardinality=True)
        assert len(m) == len(expected)

    def test_planar_instance(self):
        g = delaunay_planar_graph(120, seed=1)
        m = max_cardinality_matching(g)
        assert is_matching(g, m)
        expected = nx.max_weight_matching(g.to_networkx(), maxcardinality=True)
        assert len(m) == len(expected)


class TestMWMStructured:
    def test_prefers_heavy_edge_over_two_light(self):
        g = Graph.from_weighted_edges([(0, 1, 10.0), (1, 2, 3.0), (2, 3, 3.0)])
        m = max_weight_matching(g)
        assert matching_weight(g, m) == 13.0

    def test_heavy_middle_edge_wins(self):
        g = Graph.from_weighted_edges([(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
        m = max_weight_matching(g)
        assert m == {(1, 2)}

    def test_triangle_takes_heaviest(self):
        g = Graph.from_weighted_edges([(0, 1, 3.0), (1, 2, 5.0), (0, 2, 4.0)])
        assert max_weight_matching(g) == {(1, 2)}

    def test_maxcardinality_sacrifices_weight(self):
        # Without the flag: take only the heavy middle edge.  With it:
        # must take two edges.
        g = Graph.from_weighted_edges([(0, 1, 1.0), (1, 2, 10.0), (2, 3, 1.0)])
        plain = max_weight_matching(g)
        maxcard = max_weight_matching(g, maxcardinality=True)
        assert plain == {(1, 2)}
        assert len(maxcard) == 2

    def test_empty_graph(self):
        assert max_weight_matching(Graph()) == set()


class TestMWMRandom:
    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, g):
        m = max_weight_matching(g)
        assert is_matching(g, m)
        opt, _ = brute_force_mwm(g)
        assert matching_weight(g, m) == pytest.approx(opt)

    @given(weighted_graphs())
    @settings(max_examples=60, deadline=None)
    def test_against_networkx(self, g):
        m = max_weight_matching(g)
        expected = nx.max_weight_matching(g.to_networkx())
        expected_weight = sum(g.weight(u, v) for u, v in expected)
        assert matching_weight(g, m) == pytest.approx(expected_weight)

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_maxcardinality_against_networkx(self, g):
        m = max_weight_matching(g, maxcardinality=True)
        expected = nx.max_weight_matching(g.to_networkx(), maxcardinality=True)
        assert len(m) == len(expected)
        assert matching_weight(g, m) == pytest.approx(
            sum(g.weight(u, v) for u, v in expected)
        )

    def test_planar_weighted_instance(self):
        g = random_integer_weights(
            delaunay_planar_graph(80, seed=2), 100, seed=3
        )
        m = max_weight_matching(g)
        expected = nx.max_weight_matching(g.to_networkx())
        assert matching_weight(g, m) == pytest.approx(
            sum(g.weight(u, v) for u, v in expected)
        )
