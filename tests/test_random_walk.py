"""Tests for the mixing-time bound, checked against the exact definition."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.generators import complete_graph, cycle_graph, grid_graph, path_graph
from repro.graph import Graph
from repro.spectral import mixing_time_bound
from tests._oracles import (
    lazy_walk_matrix,
    mixing_time_exact,
    stationary_distribution,
)


class TestWalkMatrix:
    def test_columns_are_distributions(self):
        g = grid_graph(3, 3)
        p = lazy_walk_matrix(g)
        assert np.allclose(p.sum(axis=0), 1.0)
        assert (p >= 0).all()

    def test_laziness_on_diagonal(self):
        g = cycle_graph(5)
        p = lazy_walk_matrix(g)
        assert np.allclose(np.diag(p), 0.5)

    def test_stationary_is_fixed_point(self):
        g = grid_graph(3, 4)
        p = lazy_walk_matrix(g)
        pi = stationary_distribution(g)
        assert np.allclose(p @ pi, pi)
        assert pi.sum() == pytest.approx(1.0)

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges([(0, 1)])
        g.add_vertex(2)
        with pytest.raises(GraphError):
            lazy_walk_matrix(g)


class TestMixingTime:
    def test_complete_graph_mixes_fast(self):
        assert mixing_time_exact(complete_graph(8)) <= 25

    def test_path_mixes_slower_than_clique(self):
        clique = mixing_time_exact(complete_graph(8))
        path = mixing_time_exact(path_graph(8))
        assert path > clique

    def test_exact_definition_holds_at_tau(self):
        g = cycle_graph(6)
        tau = mixing_time_exact(g)
        p = lazy_walk_matrix(g)
        pi = stationary_distribution(g)
        state = np.linalg.matrix_power(p, tau)
        assert np.all(np.abs(state - pi[:, None]) <= pi[:, None] / g.n + 1e-12)
        # And it is the *minimum* such t.
        state_prev = np.linalg.matrix_power(p, tau - 1)
        assert not np.all(
            np.abs(state_prev - pi[:, None]) <= pi[:, None] / g.n + 1e-12
        )

    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            mixing_time_exact(g)

    def test_bound_dominates_exact(self):
        for g in (cycle_graph(8), grid_graph(3, 3), complete_graph(6)):
            assert mixing_time_bound(g) >= mixing_time_exact(g)

    def test_bound_infinite_when_disconnected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert mixing_time_bound(g) == float("inf")

