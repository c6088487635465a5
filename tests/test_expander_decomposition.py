"""Tests for the (epsilon, phi) expander decomposition (Theorems 2.1/2.2)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.decomposition import (
    expander_decomposition,
    phi_for_epsilon,
    verify_expander_decomposition,
)
from repro.errors import DecompositionError
from repro.generators import (
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    hypercube_graph,
    k_tree,
    random_tree,
    toroidal_grid_graph,
    triangulated_grid_graph,
)
from repro.graph import Graph
from repro.obs.registry import telemetry_scope
from repro.spectral import conductance, conductance_lower_bound

#: Graphs whose clusters must not depend on how lambda_2 is solved.  The
#: grid, torus and hypercube have a repeated lambda_2 (multiplicity 2, 4
#: and 8), and phi is high enough that every one of them splits.
DETERMINISM_GRAPHS = {
    "grid": lambda: grid_graph(32, 32),
    "torus": lambda: toroidal_grid_graph(32, 32),
    "tri-grid": lambda: triangulated_grid_graph(32, 32),
    "hypercube": lambda: hypercube_graph(8),
    "delaunay": lambda: delaunay_planar_graph(512, seed=5),
}


def decomposition_signature(graph):
    """Clusters and cut set of one decomposition, as order-free JSON data."""
    dec = expander_decomposition(
        graph, 0.4, phi=0.15, seed=0, enforce_budget=False
    )
    return {
        "clusters": sorted(sorted(map(repr, c)) for c in dec.clusters),
        "cut_edges": sorted(map(repr, dec.cut_edges)),
    }


def all_signatures():
    return {
        name: decomposition_signature(make())
        for name, make in DETERMINISM_GRAPHS.items()
    }


def shuffled_copy(graph, seed):
    """The same graph with vertices and edges inserted in a random order."""
    rnd = random.Random(seed)
    vertices = graph.vertices()
    rnd.shuffle(vertices)
    edges = list(graph.edges())
    rnd.shuffle(edges)
    copy = Graph()
    for v in vertices:
        copy.add_vertex(v)
    for u, v in edges:
        copy.add_edge(v, u)
    return copy


class TestBasics:
    def test_phi_for_epsilon_monotone(self):
        assert phi_for_epsilon(0.4, 100) > phi_for_epsilon(0.1, 100)
        assert phi_for_epsilon(0.2, 100) > phi_for_epsilon(0.2, 10_000)

    def test_invalid_epsilon(self):
        with pytest.raises(DecompositionError):
            expander_decomposition(grid_graph(3, 3), 1.5)
        with pytest.raises(DecompositionError):
            phi_for_epsilon(0.0, 10)

    def test_complete_graph_single_cluster(self):
        dec = expander_decomposition(complete_graph(10), 0.2, seed=0)
        assert dec.k == 1
        assert dec.cut_fraction() == 0.0

    def test_singletons_for_isolated_vertices(self):
        g = Graph.from_edges([(0, 1)])
        g.add_vertex(5)
        dec = expander_decomposition(g, 0.5, seed=0)
        assert {frozenset(c) for c in dec.clusters} == {
            frozenset({0, 1}),
            frozenset({5}),
        }


class TestGuarantees:
    @pytest.mark.parametrize("epsilon", [0.1, 0.2, 0.4])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid_graph(8, 8),
            lambda: delaunay_planar_graph(100, seed=1),
            lambda: k_tree(80, 3, seed=2),
            lambda: toroidal_grid_graph(6, 6),
            lambda: random_tree(80, seed=3),
        ],
        ids=["grid", "delaunay", "ktree", "torus", "tree"],
    )
    def test_budget_and_certificates(self, make, epsilon):
        g = make()
        dec = expander_decomposition(g, epsilon, seed=0)
        report = verify_expander_decomposition(dec)
        assert report["cut_fraction"] <= epsilon
        assert report["min_certificate"] >= dec.phi

    def test_explicit_phi_gives_smaller_clusters(self):
        g = delaunay_planar_graph(120, seed=4)
        coarse = expander_decomposition(g, 0.3, seed=0)
        fine = expander_decomposition(
            g, 0.3, phi=0.05, seed=0, enforce_budget=False
        )
        assert max(len(c) for c in fine.clusters) <= max(
            len(c) for c in coarse.clusters
        )
        assert fine.k >= coarse.k

    def test_max_cluster_size_respected(self):
        g = delaunay_planar_graph(150, seed=5)
        dec = expander_decomposition(
            g, 0.3, seed=0, enforce_budget=False, max_cluster_size=40
        )
        assert all(len(c) <= 40 for c in dec.clusters)

    def test_budget_violation_raises(self):
        # phi far above the feasible trade-off must blow the budget.
        g = grid_graph(10, 10)
        with pytest.raises(DecompositionError):
            expander_decomposition(g, 0.05, phi=0.5, seed=0)

    def test_clusters_partition_vertices(self):
        g = k_tree(60, 2, seed=6)
        dec = expander_decomposition(g, 0.3, phi=0.08, seed=0,
                                     enforce_budget=False)
        seen = set()
        for cluster in dec.clusters:
            assert not (seen & cluster)
            seen |= cluster
        assert seen == set(g.vertices())

    def test_certificates_are_true_lower_bounds(self):
        g = delaunay_planar_graph(90, seed=7)
        dec = expander_decomposition(g, 0.25, phi=0.04, seed=0,
                                     enforce_budget=False)
        for cluster, cert in zip(dec.clusters, dec.certificates):
            sub = g.subgraph(cluster)
            if sub.n > 2:
                assert conductance_lower_bound(sub) >= min(cert, dec.phi) - 1e-9


class TestHypercubeTightness:
    """The Section 2 remark: hypercubes pin phi = O(1/log n)."""

    def test_hypercube_clusters_have_low_conductance_certificates(self):
        g = hypercube_graph(6)  # n = 64
        dec = expander_decomposition(g, 0.3, seed=0, enforce_budget=False)
        # The whole hypercube's conductance is Theta(1/d): no cluster
        # can certify much more than that without being tiny.
        big = [c for c in dec.clusters if len(c) > 4]
        for cluster in big:
            sub = g.subgraph(cluster)
            assert conductance_lower_bound(sub) < 0.5

    def test_verify_rejects_tampered_cut(self):
        g = grid_graph(6, 6)
        dec = expander_decomposition(g, 0.3, seed=0)
        if dec.k == 1:
            # Force a split so there is a cut edge to tamper with.
            dec = expander_decomposition(
                g, 0.3, phi=0.2, seed=0, enforce_budget=False
            )
        dec.cut_edges.pop()
        with pytest.raises(DecompositionError):
            verify_expander_decomposition(dec)

    def test_theoretical_rounds_monotone_in_epsilon(self):
        g = grid_graph(6, 6)
        tight = expander_decomposition(g, 0.1, seed=0)
        loose = expander_decomposition(g, 0.4, seed=0)
        assert tight.theoretical_rounds() > loose.theoretical_rounds()


class TestDeterminism:
    """Clusters and cuts are a function of the graph alone."""

    @pytest.fixture(scope="class")
    def reference(self):
        return all_signatures()

    @pytest.mark.parametrize(
        "min_n, path",
        [(sys.maxsize, "dense"), (2, "sparse")],
        ids=["dense", "sparse"],
    )
    def test_same_clusters_from_either_solver(
        self, reference, monkeypatch, min_n, path
    ):
        monkeypatch.setattr(conductance, "_SPARSE_MIN_N", min_n)
        with telemetry_scope() as registry:
            assert all_signatures() == reference
        solves = registry.counters
        other = "sparse" if path == "dense" else "dense"
        assert solves[f"spectral.eigen.{path}"] > solves.get(
            f"spectral.eigen.{other}", 0
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_same_clusters_under_any_blas_thread_count(self, reference, threads):
        root = str(Path(__file__).resolve().parents[1])
        script = (
            "import json; "
            "from tests.test_expander_decomposition import all_signatures; "
            "print(json.dumps(all_signatures()))"
        )
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([root] + sys.path),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == reference

    def test_same_clusters_for_any_insertion_order(self, reference):
        for seed, (name, make) in enumerate(DETERMINISM_GRAPHS.items()):
            shuffled = shuffled_copy(make(), seed)
            assert decomposition_signature(shuffled) == reference[name], name
