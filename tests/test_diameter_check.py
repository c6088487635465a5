"""Tests for the Section 2.3 cluster diameter check (``diameter_within``)."""

from collections import deque

import pytest

from repro.core.failure import diameter_within
from repro.generators import (
    complete_graph,
    cycle_graph,
    delaunay_planar_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph import Graph


def _bfs_diameter(graph, vertices):
    """Largest BFS eccentricity inside ``vertices`` (one component)."""
    worst = 0
    for source in vertices:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w in vertices and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        worst = max(worst, max(dist.values()))
    return worst


class TestDecisiveRegimes:
    @pytest.mark.parametrize(
        "graph, b",
        [
            (complete_graph(10), 1),
            (star_graph(12), 2),
            (grid_graph(4, 4), 6),
            (grid_graph(4, 4), 10),
            (path_graph(8), 7),
            (cycle_graph(10), 5),
        ],
        ids=["K10", "star", "grid=b", "grid<b", "path=b", "cycle=b"],
    )
    def test_within_bound_accepts(self, graph, b):
        assert graph.diameter() <= b
        assert diameter_within(graph, b)

    @pytest.mark.parametrize(
        "graph, b",
        [
            (path_graph(20), 3),
            (path_graph(30), 5),
            (cycle_graph(40), 4),
            (grid_graph(8, 8), 2),
        ],
        ids=["P20", "P30", "C40", "grid8"],
    )
    def test_far_beyond_bound_rejects_uniformly(self, graph, b):
        assert graph.diameter() >= 2 * b + 1
        assert not diameter_within(graph, b)


class TestConsistency:
    def test_agrees_with_centralized_check_on_clusters(self):
        # Induced clusters of a planar network, some disconnected: the
        # check must match an independent per-component BFS diameter.
        g = delaunay_planar_graph(60, seed=1)
        order = g.vertices()
        clusters = [set(order[i : i + 15]) for i in range(0, len(order), 15)]
        for cluster in clusters:
            sub = g.subgraph(cluster)
            worst = max(
                _bfs_diameter(sub, comp) for comp in sub.connected_components()
            )
            for b in (1, 3, 5, 20):
                assert diameter_within(sub, b) == (worst <= b)

    def test_singleton(self):
        g = Graph()
        g.add_vertex(0)
        assert diameter_within(g, 3)
