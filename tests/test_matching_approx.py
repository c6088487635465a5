"""Tests for greedy matching and star-elimination preprocessing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import (
    delaunay_planar_graph,
    gnp_random_graph,
    star_graph,
)
from repro.graph import Graph
from repro.matching import (
    eliminate_stars,
    greedy_weight_matching,
    is_matching,
    matching_weight,
    max_cardinality_matching,
    max_weight_matching,
    maximal_matching,
)


def weighted_graphs():
    return st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.integers(1, 10)
        ).filter(lambda e: e[0] != e[1]),
        max_size=20,
    ).map(
        lambda edges: Graph.from_weighted_edges(
            [(u, v, float(w)) for u, v, w in edges]
        )
    )


class TestGreedy:
    @given(weighted_graphs())
    @settings(max_examples=50, deadline=None)
    def test_half_approximation(self, g):
        greedy = greedy_weight_matching(g)
        assert is_matching(g, greedy)
        opt = matching_weight(g, max_weight_matching(g))
        assert matching_weight(g, greedy) >= opt / 2 - 1e-9

    @given(weighted_graphs())
    @settings(max_examples=50, deadline=None)
    def test_maximal_matching_is_maximal(self, g):
        m = maximal_matching(g, seed=0)
        assert is_matching(g, m)
        covered = {v for e in m for v in e}
        for u, v in g.edges():
            assert u in covered or v in covered


class TestStarElimination:
    def test_star_collapses(self):
        g = star_graph(8)
        reduced, removed = eliminate_stars(g)
        assert reduced.n == 2
        assert len(removed) == 7

    def test_double_star_keeps_two_satellites(self):
        # K_{2,5}: five degree-2 satellites over the pair (0, 1).
        g = Graph()
        for s in range(2, 7):
            g.add_edge(0, s)
            g.add_edge(1, s)
        reduced, removed = eliminate_stars(g)
        satellites = [v for v in reduced.vertices() if v >= 2]
        assert len(satellites) == 2
        assert len(removed) == 3

    def test_matching_size_preserved(self):
        for seed in range(5):
            g = gnp_random_graph(14, 0.15, seed=seed)
            reduced, _ = eliminate_stars(g)
            before = len(max_cardinality_matching(g))
            after = len(max_cardinality_matching(reduced))
            assert before == after

    def test_isolated_vertices_removed(self):
        g = Graph.from_edges([(0, 1)], vertices=[0, 1, 2])
        reduced, removed = eliminate_stars(g)
        assert 2 in removed

    def test_lemma_3_1_linearity_on_planar(self):
        """After elimination, MCM = Omega(n) on planar instances."""
        for seed in range(3):
            g = delaunay_planar_graph(80, seed=seed)
            # Attach lots of pendant vertices to stress the lemma.
            next_id = 80
            for v in range(0, 40, 2):
                for _ in range(3):
                    g.add_edge(v, next_id)
                    next_id += 1
            reduced, _ = eliminate_stars(g)
            if reduced.n == 0:
                continue
            mcm = len(max_cardinality_matching(reduced))
            assert mcm >= reduced.n / 8

    def test_fixed_point(self):
        g = star_graph(5)
        reduced, _ = eliminate_stars(g)
        again, removed = eliminate_stars(reduced)
        assert not removed
        assert again == reduced
