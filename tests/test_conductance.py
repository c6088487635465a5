"""Tests for conductance machinery: exact, Cheeger bounds, sweep cuts."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    toroidal_grid_graph,
)
from repro.graph import Graph
from repro.obs.registry import telemetry_scope
from repro.spectral import (
    cheeger_bounds,
    conductance,
    conductance_lower_bound,
    exact_conductance,
    fiedler_vector,
    normalized_laplacian,
    spectral_gap,
    sweep_cut,
)


class TestExactConductance:
    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)])
        phi, cut = exact_conductance(g)
        assert phi == pytest.approx(1.0)

    def test_path_of_four(self):
        g = path_graph(4)
        phi, cut = exact_conductance(g)
        # Cutting the middle edge: 1 crossing / vol 3.
        assert phi == pytest.approx(1 / 3)

    def test_cycle(self):
        g = cycle_graph(8)
        phi, _ = exact_conductance(g)
        assert phi == pytest.approx(2 / 8)

    def test_complete_graph_high_conductance(self):
        g = complete_graph(6)
        phi, _ = exact_conductance(g)
        assert phi > 0.5

    def test_disconnected_zero(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        phi, _ = exact_conductance(g)
        assert phi == 0.0

    def test_size_limit(self):
        with pytest.raises(SolverError):
            exact_conductance(grid_graph(5, 5))


class TestSpectral:
    def test_laplacian_eigenvalue_range(self):
        g = grid_graph(4, 4)
        eig = np.linalg.eigvalsh(normalized_laplacian(g))
        assert eig[0] == pytest.approx(0.0, abs=1e-8)
        assert eig[-1] <= 2.0 + 1e-8

    def test_gap_zero_iff_disconnected(self):
        connected = cycle_graph(6)
        disconnected = Graph.from_edges([(0, 1), (2, 3)])
        assert spectral_gap(connected) > 1e-6
        assert spectral_gap(disconnected) == pytest.approx(0.0, abs=1e-8)

    def test_complete_graph_gap(self):
        # lambda_2 of K_n's normalized Laplacian is n/(n-1).
        g = complete_graph(8)
        assert spectral_gap(g) == pytest.approx(8 / 7, abs=1e-8)

    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(10), grid_graph(4, 4), complete_graph(7), hypercube_graph(3)],
        ids=["cycle", "grid", "complete", "cube"],
    )
    def test_cheeger_sandwich(self, graph):
        # Only graphs small enough for the exact solver.
        if graph.n > 18:
            pytest.skip("too large for exact check")
        low, high = cheeger_bounds(graph)
        phi, _ = exact_conductance(graph)
        assert low - 1e-9 <= phi <= high + 1e-9

    def test_lower_bound_is_valid(self):
        rnd = random.Random(0)
        for _ in range(20):
            g = gnp_random_graph(rnd.randint(4, 12), 0.5, seed=rnd.getrandbits(32))
            if not g.is_connected() or g.m == 0:
                continue
            lower = conductance_lower_bound(g)
            phi, _ = exact_conductance(g)
            assert lower <= phi + 1e-9

    @pytest.mark.parametrize("min_n", [10**9, 2], ids=["dense", "sparse"])
    def test_fiedler_vector_in_repeated_eigenspace(self, monkeypatch, min_n):
        # lambda_2 = (1 - cos(2 pi / 16)) / 2 of the 16x16 torus has
        # multiplicity 4; the vector is one unit member of that space.
        monkeypatch.setattr(conductance, "_SPARSE_MIN_N", min_n)
        g = toroidal_grid_graph(16, 16)
        gap = spectral_gap(g)
        vector = fiedler_vector(g)
        assert gap == pytest.approx((1 - np.cos(2 * np.pi / 16)) / 2, abs=1e-12)
        assert np.linalg.norm(vector) == pytest.approx(1.0)
        residual = normalized_laplacian(g) @ vector - gap * vector
        assert np.linalg.norm(residual) < 1e-9

    def test_sparse_laplacian_matches_dense(self):
        g = grid_graph(5, 6)
        g.add_vertex("isolated")
        order = g.vertices()
        random.Random(2).shuffle(order)
        sparse = conductance._sparse_laplacian(g, order).toarray()
        assert np.array_equal(sparse, normalized_laplacian(g, order))

    def test_fiedler_vector_ignores_insertion_order(self):
        g = toroidal_grid_graph(16, 16)
        edges = list(g.edges())
        random.Random(3).shuffle(edges)
        shuffled = Graph.from_edges((v, u) for u, v in edges)
        expected = dict(zip(g.vertices(), fiedler_vector(g)))
        got = dict(zip(shuffled.vertices(), fiedler_vector(shuffled)))
        assert max(abs(expected[v] - got[v]) for v in expected) < 1e-9


class TestSpectralTelemetry:
    def test_counts_solver_paths_and_eigenspace_dimension(self):
        with telemetry_scope() as registry:
            fiedler_vector(toroidal_grid_graph(8, 8))
            fiedler_vector(toroidal_grid_graph(16, 16))
        assert registry.counters["spectral.eigen.dense"] == 1
        assert registry.counters["spectral.eigen.sparse"] == 1
        assert "spectral.eigen.fallbacks" not in registry.counters
        dims = registry.histograms["spectral.eigenspace_dim"]
        assert dims.count == 2
        assert dims.max == 4

    def test_arpack_failure_falls_back_to_dense(self, monkeypatch):
        from scipy.sparse import linalg

        g = toroidal_grid_graph(16, 16)
        expected = fiedler_vector(g)

        def no_convergence(*args, **kwargs):
            raise linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(linalg, "eigsh", no_convergence)
        with telemetry_scope() as registry:
            vector = fiedler_vector(g)
        assert registry.counters["spectral.eigen.fallbacks"] == 1
        assert registry.counters["spectral.eigen.dense"] == 1
        assert "spectral.eigen.sparse" not in registry.counters
        assert np.abs(vector - expected).max() < 1e-9

    def test_records_nothing_when_telemetry_off(self):
        with telemetry_scope(record=False) as registry:
            fiedler_vector(toroidal_grid_graph(16, 16))
        assert not registry


class TestSweepCut:
    def test_sweep_cut_within_cheeger(self):
        g = grid_graph(5, 5)
        value, cut = sweep_cut(g)
        _, high = cheeger_bounds(g)
        assert 0 < len(cut) < g.n
        assert value <= high + 1e-9
        assert value == pytest.approx(g.conductance_of_cut(cut))

    def test_sweep_cut_matches_exact_on_barbell(self):
        # Two triangles joined by one edge: the bridge is the min cut.
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        value, cut = sweep_cut(g)
        phi, _ = exact_conductance(g)
        assert value == pytest.approx(phi)

    def test_balanced_sweep_is_balanced(self):
        g = grid_graph(6, 6)
        _, cut = sweep_cut(g, balanced=True)
        assert min(len(cut), g.n - len(cut)) * 3 >= g.n

    def test_randomized_sweep_respects_slack(self):
        g = grid_graph(6, 6)
        best, _ = sweep_cut(g)
        rng = random.Random(5)
        for _ in range(10):
            value, cut = sweep_cut(g, rng=rng, slack=1.5)
            assert value <= 1.5 * best + 1e-9

    def test_randomized_sweep_varies(self):
        g = grid_graph(8, 8)
        rng = random.Random(1)
        cuts = {frozenset(sweep_cut(g, rng=rng, slack=2.0)[1]) for _ in range(12)}
        assert len(cuts) > 1
