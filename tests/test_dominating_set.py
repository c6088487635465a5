"""Tests for the minimum dominating set extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dominating_set import (
    distributed_mds,
    exact_mds,
    greedy_mds,
    is_dominating_set,
    solve_mds,
)
from repro.dominating_set import util
from repro.dominating_set.exact import DEFAULT_NODE_BUDGET, _MDSSearch
from repro.errors import SolverBudgetError, SolverError
from repro.generators import (
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    gnp_random_graph,
    grid_graph,
    k_tree,
    path_graph,
    random_tree,
    star_graph,
    toroidal_grid_graph,
)
from repro.graph import Graph
from repro.obs.registry import telemetry_scope

#: (instance, branch nodes, sorted returned set) of the exact search,
#: as recorded from a search that counted coverage with set
#: intersections.  Any change to a branching decision or its tie order
#: moves a node count here.
PINNED_SEARCHES = [
    (lambda: toroidal_grid_graph(7, 7), 91_921,
     [0, 3, 12, 15, 16, 25, 27, 30, 35, 40, 42, 45]),
    (lambda: delaunay_planar_graph(60, seed=131), 11_377,
     [5, 8, 9, 10, 20, 23, 35, 38, 50, 57]),
    (lambda: delaunay_planar_graph(50, seed=0), 972,
     [7, 10, 16, 18, 37, 38, 40, 45]),
    (lambda: delaunay_planar_graph(50, seed=1), 2_985,
     [3, 7, 11, 25, 26, 27, 37, 45]),
    (lambda: delaunay_planar_graph(50, seed=2), 1_371,
     [0, 2, 4, 8, 22, 24, 25, 26]),
    (lambda: delaunay_planar_graph(50, seed=3), 742,
     [3, 4, 8, 9, 24, 36, 37, 41]),
    (lambda: delaunay_planar_graph(50, seed=4), 2_197,
     [5, 6, 8, 27, 28, 35, 38, 43]),
    (lambda: k_tree(40, 3, seed=0), 81, [1, 2, 3, 4, 15]),
    (lambda: k_tree(40, 3, seed=1), 33, [1, 3, 4, 18]),
    (lambda: k_tree(40, 3, seed=2), 21, [0, 1, 2, 9]),
    (lambda: k_tree(40, 3, seed=3), 205, [0, 2, 4, 5, 12, 14]),
    (lambda: k_tree(40, 3, seed=4), 85, [0, 1, 3, 6, 14]),
]
PINNED_IDS = [
    "torus7x7", "delaunay60-s131",
    *(f"delaunay50-s{s}" for s in range(5)),
    *(f"3tree40-s{s}" for s in range(5)),
]


def brute_force_mds_size(g: Graph) -> int:
    from itertools import combinations

    vertices = g.vertices()
    for size in range(0, g.n + 1):
        for combo in combinations(vertices, size):
            if is_dominating_set(g, combo):
                return size
    return g.n


class TestValidator:
    def test_accepts_full_set(self):
        g = cycle_graph(5)
        assert is_dominating_set(g, g.vertices())

    def test_rejects_non_dominating(self):
        g = path_graph(5)
        assert not is_dominating_set(g, {0})

    def test_rejects_foreign_vertices(self):
        g = path_graph(3)
        assert not is_dominating_set(g, {99})

    def test_empty_graph(self):
        assert is_dominating_set(Graph(), set())


class TestExact:
    @pytest.mark.parametrize(
        "graph, gamma",
        [
            (star_graph(9), 1),
            (path_graph(6), 2),
            (path_graph(7), 3),
            (cycle_graph(9), 3),
            (complete_graph(5), 1),
            (grid_graph(3, 3), 3),
        ],
        ids=["star", "P6", "P7", "C9", "K5", "grid3"],
    )
    def test_known_values(self, graph, gamma):
        result = exact_mds(graph)
        assert is_dominating_set(graph, result)
        assert len(result) == gamma

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=16,
        ).map(Graph.from_edges)
    )
    @settings(max_examples=40, deadline=None)
    def test_against_brute_force(self, g):
        result = exact_mds(g)
        assert is_dominating_set(g, result)
        assert len(result) == brute_force_mds_size(g)

    def test_budget_raises(self):
        g = gnp_random_graph(40, 0.2, seed=1)
        with pytest.raises(SolverBudgetError):
            exact_mds(g, node_budget=3)

    @pytest.mark.parametrize(
        "build, nodes, expected", PINNED_SEARCHES, ids=PINNED_IDS
    )
    def test_search_tree_is_pinned(self, build, nodes, expected):
        g = build()
        search = _MDSSearch(g, DEFAULT_NODE_BUDGET)
        result = search.run()
        assert sorted(result) == expected
        assert search.nodes == nodes
        assert sorted(exact_mds(g)) == expected

    def test_planar_instance(self):
        g = delaunay_planar_graph(50, seed=2)
        result = exact_mds(g)
        assert is_dominating_set(g, result)
        assert len(result) <= len(greedy_mds(g))


class TestGreedyAndSolve:
    def test_greedy_is_dominating(self):
        for seed in range(4):
            g = delaunay_planar_graph(60, seed=seed)
            assert is_dominating_set(g, greedy_mds(g))

    def test_greedy_star_optimal(self):
        assert greedy_mds(star_graph(10)) == {0}

    def test_solve_falls_back(self):
        g = gnp_random_graph(40, 0.2, seed=3)
        result = solve_mds(g, node_budget=3)
        assert is_dominating_set(g, result)

    def test_solve_raises_on_internal_check_failure(self, monkeypatch):
        # Only budget exhaustion may fall back to greedy; a broken exact
        # solver must not hide behind it.
        monkeypatch.setattr(util, "is_dominating_set", lambda g, s: False)
        with pytest.raises(SolverError, match="non-dominating"):
            solve_mds(grid_graph(3, 3))

    def test_solve_counts_nodes(self):
        g = grid_graph(4, 4)
        search = _MDSSearch(g, 100_000)
        search.run()
        with telemetry_scope() as registry:
            solve_mds(g)
        assert registry.counters["solve.mds.nodes"] == search.nodes
        assert "solve.mds.fallbacks" not in registry.counters

    def test_solve_counts_fallbacks(self):
        g = gnp_random_graph(40, 0.2, seed=3)
        with telemetry_scope() as registry:
            solve_mds(g, node_budget=3)
            solve_mds(g, node_budget=3)
        assert registry.counters["solve.mds.fallbacks"] == 2
        assert registry.counters["solve.mds.nodes"] == 2 * 4

    def test_solve_counts_nothing_when_telemetry_off(self):
        with telemetry_scope(record=False) as registry:
            solve_mds(gnp_random_graph(40, 0.2, seed=3), node_budget=3)
        assert not registry


class TestDistributed:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_ratio_on_bounded_degree_planar(self, seed):
        g = grid_graph(7, 7)
        epsilon = 0.3
        result = distributed_mds(g, epsilon, seed=seed)
        assert is_dominating_set(g, result.dominating_set)
        opt = len(exact_mds(g))
        assert result.size <= (1 + epsilon) * opt

    def test_ratio_on_delaunay(self):
        g = delaunay_planar_graph(60, seed=4)
        result = distributed_mds(g, 0.3, seed=5)
        opt = len(exact_mds(g))
        assert result.size <= 1.3 * opt

    def test_tree_instance(self):
        g = random_tree(50, seed=6)
        result = distributed_mds(g, 0.4, seed=7)
        assert is_dominating_set(g, result.dominating_set)

    def test_invalid_epsilon(self):
        with pytest.raises(SolverError):
            distributed_mds(grid_graph(3, 3), 1.5)
