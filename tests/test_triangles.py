"""Tests for triangle listing (centralized and distributed)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.generators import (
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    k_tree,
    random_tree,
    triangulated_grid_graph,
)
from repro.graph import Graph
from repro.subgraphs import distributed_triangle_listing, list_triangles


class TestCentralized:
    @pytest.mark.parametrize(
        "graph, count",
        [
            (complete_graph(4), 4),
            (complete_graph(5), 10),
            (complete_graph(6), 20),
            (cycle_graph(3), 1),
            (cycle_graph(6), 0),
            (grid_graph(4, 4), 0),
            (random_tree(20, seed=1), 0),
        ],
        ids=["K4", "K5", "K6", "C3", "C6", "grid", "tree"],
    )
    def test_known_counts(self, graph, count):
        assert len(list_triangles(graph)) == count

    def test_triangles_are_real(self):
        g = triangulated_grid_graph(5, 5)
        for triangle in list_triangles(g):
            a, b, c = sorted(triangle)
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        ).map(Graph.from_edges)
    )
    @settings(max_examples=60, deadline=None)
    def test_against_networkx(self, g):
        expected = sum(nx.triangles(g.to_networkx()).values()) // 3
        assert len(list_triangles(g)) == expected


class TestDistributed:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: triangulated_grid_graph(8, 8),
            lambda: delaunay_planar_graph(90, seed=2),
            lambda: k_tree(70, 3, seed=3),
        ],
        ids=["tri-grid", "delaunay", "ktree"],
    )
    def test_lists_exactly_all_triangles(self, make):
        g = make()
        found, framework, cut_metrics = distributed_triangle_listing(
            g, epsilon=0.9, phi=0.05, seed=4
        )
        assert found == list_triangles(g)
        # When the decomposition has cut edges, phase 2 must have paid.
        if framework.decomposition.cut_edges:
            assert cut_metrics.rounds > 0

    def test_single_cluster_no_cut_phase(self):
        g = triangulated_grid_graph(5, 5)
        found, framework, cut_metrics = distributed_triangle_listing(
            g, epsilon=0.3, seed=5
        )
        assert found == list_triangles(g)
        if not framework.decomposition.cut_edges:
            assert cut_metrics.total_messages == 0

    def test_triangle_free_graph(self):
        g = grid_graph(6, 6)
        found, _, _ = distributed_triangle_listing(g, epsilon=0.5, seed=6)
        assert found == set()

    def test_invalid_epsilon(self):
        with pytest.raises(SolverError):
            distributed_triangle_listing(grid_graph(3, 3), epsilon=0.0)
