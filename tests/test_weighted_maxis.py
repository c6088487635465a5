"""Tests for the weighted MAXIS extension."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverBudgetError, SolverError
from repro.generators import (
    cycle_graph,
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    star_graph,
)
from repro.graph import Graph
from repro.independent_set import (
    distributed_weighted_maxis,
    exact_weighted_maxis,
    greedy_weighted_is,
    solve_weighted_maxis,
)
from repro.independent_set.weighted import _WeightedSearch


def brute_force_weighted(g, weights):
    best = 0.0
    vertices = g.vertices()
    for size in range(len(vertices) + 1):
        for combo in combinations(vertices, size):
            s = set(combo)
            if all(not (u in s and v in s) for u, v in g.edges()):
                best = max(best, sum(weights.get(v, 0) for v in s))
    return best


def random_weights(g, rnd, max_w=10):
    return {v: rnd.randint(0, max_w) for v in g.vertices()}


def is_independent(g, s):
    return all(not (u in s and v in s) for u, v in g.edges())


class TestExactWeighted:
    def test_heavy_center_star(self):
        g = star_graph(6)
        weights = {0: 100, **{v: 1 for v in range(1, 7)}}
        result = exact_weighted_maxis(g, weights)
        assert result == {0}

    def test_light_center_star(self):
        g = star_graph(6)
        weights = {0: 2, **{v: 1 for v in range(1, 7)}}
        result = exact_weighted_maxis(g, weights)
        assert result == set(range(1, 7))

    def test_zero_weight_vertices_excluded(self):
        g = cycle_graph(4)
        weights = {0: 5, 1: 0, 2: 5, 3: 0}
        result = exact_weighted_maxis(g, weights)
        assert result == {0, 2}

    @pytest.mark.parametrize("trial", range(25))
    def test_against_brute_force(self, trial):
        rnd = random.Random(trial)
        g = gnp_random_graph(rnd.randint(1, 10), 0.4, seed=rnd.getrandbits(32))
        weights = random_weights(g, rnd)
        result = exact_weighted_maxis(g, weights)
        assert is_independent(g, result)
        got = sum(weights.get(v, 0) for v in result)
        assert got == brute_force_weighted(g, weights)

    def test_budget_raises(self):
        rnd = random.Random(0)
        g = gnp_random_graph(40, 0.5, seed=1)
        with pytest.raises(SolverBudgetError):
            exact_weighted_maxis(g, random_weights(g, rnd), node_budget=3)


class TestGreedyAndSolve:
    def test_greedy_valid(self):
        rnd = random.Random(1)
        for _ in range(10):
            g = gnp_random_graph(rnd.randint(2, 15), 0.3, seed=rnd.getrandbits(32))
            s = greedy_weighted_is(g, random_weights(g, rnd))
            assert is_independent(g, s)

    def test_solve_fallback_valid(self):
        rnd = random.Random(2)
        g = gnp_random_graph(40, 0.4, seed=3)
        s = solve_weighted_maxis(g, random_weights(g, rnd), node_budget=3)
        assert is_independent(g, s)

    def test_solve_raises_on_internal_check_failure(self, monkeypatch):
        # Only budget exhaustion may fall back to the greedy.
        monkeypatch.setattr(_WeightedSearch, "solve", lambda self, vs: set(vs))
        g = grid_graph(3, 3)
        with pytest.raises(SolverError, match="dependent"):
            solve_weighted_maxis(g, {v: 1 for v in g.vertices()})


class TestDistributedWeighted:
    def test_ratio_on_planar(self):
        rnd = random.Random(4)
        g = delaunay_planar_graph(60, seed=5)
        weights = {v: rnd.randint(1, 20) for v in g.vertices()}
        result = distributed_weighted_maxis(g, weights, 0.3, seed=6)
        assert is_independent(g, result.independent_set)
        opt = sum(
            weights[v] for v in exact_weighted_maxis(g, weights)
        )
        assert result.weight >= 0.7 * opt

    def test_uniform_weights_match_unweighted(self):
        from repro.independent_set import exact_maxis

        g = grid_graph(5, 5)
        weights = {v: 1 for v in g.vertices()}
        result = distributed_weighted_maxis(g, weights, 0.3, seed=7)
        assert result.weight >= 0.7 * len(exact_maxis(g))

    def test_rejects_negative_weights(self):
        g = cycle_graph(4)
        with pytest.raises(SolverError):
            distributed_weighted_maxis(g, {0: -1}, 0.3)

    def test_rejects_bad_epsilon(self):
        g = cycle_graph(4)
        with pytest.raises(SolverError):
            distributed_weighted_maxis(g, {v: 1 for v in g.vertices()}, 0.0)
