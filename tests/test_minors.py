"""Tests for degeneracy and the small-class checkers."""

import pytest

from repro.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    k_tree,
    maximal_outerplanar_graph,
    random_tree,
    series_parallel_graph,
    star_graph,
)
from repro.graph import Graph
from repro.minors import (
    degeneracy,
    degeneracy_ordering,
    greedy_orientation,
    is_forest,
    is_outerplanar,
    is_series_parallel,
)


class TestDegeneracy:
    def test_tree_degeneracy_one(self):
        assert degeneracy(random_tree(30, seed=1)) == 1

    def test_complete_graph(self):
        assert degeneracy(complete_graph(7)) == 6

    def test_planar_degeneracy_at_most_five(self):
        g = delaunay_planar_graph(150, seed=2)
        assert degeneracy(g) <= 5

    def test_k_tree_degeneracy(self):
        assert degeneracy(k_tree(40, 4, seed=3)) == 4

    def test_ordering_property(self):
        g = delaunay_planar_graph(80, seed=4)
        d, order = degeneracy_ordering(g)
        position = {v: i for i, v in enumerate(order)}
        for v in g.vertices():
            later = sum(1 for u in g.neighbors(v) if position[u] > position[v])
            assert later <= d

    def test_greedy_orientation_out_degree(self):
        g = delaunay_planar_graph(100, seed=5)
        d = degeneracy(g)
        out = greedy_orientation(g)
        assert all(len(targets) <= d for targets in out.values())
        # Every edge oriented exactly once.
        count = sum(len(targets) for targets in out.values())
        assert count == g.m


class TestClassCheckers:
    def test_forest_yes_no(self):
        assert is_forest(random_tree(20, seed=1))
        assert not is_forest(cycle_graph(5))
        two_trees = Graph.from_edges([(0, 1), (2, 3)])
        assert is_forest(two_trees)

    def test_series_parallel_families(self):
        assert is_series_parallel(cycle_graph(8))
        assert is_series_parallel(series_parallel_graph(40, seed=2))
        assert not is_series_parallel(complete_graph(4))
        assert not is_series_parallel(grid_graph(3, 3))

    def test_outerplanar_families(self):
        assert is_outerplanar(cycle_graph(7))
        assert is_outerplanar(maximal_outerplanar_graph(15, seed=1))
        assert is_outerplanar(star_graph(8))
        assert not is_outerplanar(complete_graph(4))
        assert not is_outerplanar(complete_bipartite_graph(2, 3))
        assert not is_outerplanar(grid_graph(3, 3))

    def test_outerplanar_subset_of_planar(self):
        from repro.minors import is_planar

        for seed in range(4):
            g = maximal_outerplanar_graph(12, seed=seed)
            assert is_outerplanar(g)
            assert is_planar(g)
