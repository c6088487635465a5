"""Tests for planar and minor-free generators.

Every generated instance is checked for membership in its promised
class by our own exact checkers (and, for planarity, cross-checked with
networkx in test_planarity.py).
"""

import os
import subprocess
import sys

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.generators import (
    apex_graph,
    delaunay_planar_graph,
    k_tree,
    maximal_outerplanar_graph,
    partial_k_tree,
    random_planar_graph,
    series_parallel_graph,
    toroidal_grid_graph,
    triangulated_grid_graph,
)
from repro.minors import is_outerplanar, is_planar, is_series_parallel


def test_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial is imported by delaunay_planar_graph on first use,
    # and scipy.sparse by the sparse eigensolve, not by ``import
    # repro``: CLI start-up and every spawned worker would otherwise
    # pay for them.  The dense eigensolve is numpy's, so nothing loads
    # scipy.linalg either.
    script = (
        "import sys, repro.cli; "
        "eager = [m for m in ('scipy.spatial', 'scipy.linalg', 'scipy.sparse')"
        " if m in sys.modules]; "
        "assert not eager, f'eager {eager}'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestPlanarGenerators:
    def test_triangulated_grid_planar_and_denser(self):
        from repro.generators import grid_graph

        plain = grid_graph(6, 6)
        tri = triangulated_grid_graph(6, 6)
        assert tri.m > plain.m
        assert is_planar(tri)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_delaunay_planar(self, seed):
        g = delaunay_planar_graph(80, seed=seed)
        assert g.n == 80
        assert g.is_connected()
        assert is_planar(g)
        # Near-triangulation density.
        assert g.m >= 2 * g.n - 10

    def test_delaunay_too_small(self):
        with pytest.raises(GraphError):
            delaunay_planar_graph(2)

    @pytest.mark.parametrize("fraction", [0.4, 0.7, 1.0])
    def test_random_planar_connected_and_planar(self, fraction):
        g = random_planar_graph(60, edge_fraction=fraction, seed=5)
        assert g.is_connected()
        assert is_planar(g)

    def test_random_planar_fraction_scales_edges(self):
        sparse = random_planar_graph(80, edge_fraction=0.4, seed=9)
        dense = random_planar_graph(80, edge_fraction=0.95, seed=9)
        assert sparse.m < dense.m

    @pytest.mark.parametrize("seed", [0, 7])
    def test_maximal_outerplanar(self, seed):
        g = maximal_outerplanar_graph(25, seed=seed)
        assert g.m == 2 * g.n - 3  # maximal outerplanar edge count
        assert is_outerplanar(g)


class TestMinorFreeGenerators:
    def test_k_tree_edge_count(self):
        g = k_tree(30, 3, seed=1)
        # k-tree: C(k+1,2) + (n - k - 1) * k edges.
        assert g.m == 6 + (30 - 4) * 3
        assert g.is_connected()

    def test_k_tree_validation(self):
        with pytest.raises(GraphError):
            k_tree(3, 4)
        with pytest.raises(GraphError):
            k_tree(10, 0)

    def test_k_tree_treewidth_bound_via_degeneracy(self):
        from repro.minors import degeneracy

        g = k_tree(40, 3, seed=2)
        assert degeneracy(g) == 3

    def test_partial_k_tree_connected(self):
        g = partial_k_tree(40, 3, edge_fraction=0.6, seed=3)
        assert g.is_connected()
        assert g.n == 40

    def test_series_parallel_is_treewidth_2(self):
        g = series_parallel_graph(40, seed=4)
        assert is_series_parallel(g)

    def test_toroidal_grid_regular(self):
        g = toroidal_grid_graph(4, 5)
        assert g.n == 20
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.m == 40

    def test_toroidal_grid_too_small(self):
        with pytest.raises(GraphError):
            toroidal_grid_graph(2, 5)

    def test_apex_graph_apex_vertex(self):
        g = apex_graph(50, apex_degree_fraction=0.5, seed=6)
        apex = 49
        # Removing the apex leaves a planar graph.
        h = g.copy()
        h.remove_vertex(apex)
        assert is_planar(h)

    def test_apex_nonplanar_possible(self):
        # With a full apex over a triangulation the result contains K_5.
        g = apex_graph(30, apex_degree_fraction=1.0, seed=8)
        assert not is_planar(g)
