"""Exponential and dense-matrix reference solvers used only as test oracles."""

import numpy as np

from repro.errors import GraphError
from repro.graph import Graph, edge_key


def brute_force_mwm(graph: Graph):
    """(weight, matching) of a maximum weight matching, by exhaustion."""
    edges = graph.weighted_edges()
    best_weight = 0.0
    best = set()

    def recurse(index, used, weight, chosen):
        nonlocal best_weight, best
        if weight > best_weight:
            best_weight = weight
            best = set(chosen)
        if index == len(edges):
            return
        remaining = sum(max(0.0, w) for _u, _v, w in edges[index:])
        if weight + remaining <= best_weight:
            return
        u, v, w = edges[index]
        if u not in used and v not in used:
            chosen.add(edge_key(u, v))
            recurse(index + 1, used | {u, v}, weight + w, chosen)
            chosen.discard(edge_key(u, v))
        recurse(index + 1, used, weight, chosen)

    recurse(0, set(), 0.0, set())
    return best_weight, best


def lazy_walk_matrix(graph: Graph) -> np.ndarray:
    """P = 1/2 I + 1/2 A D^{-1}, columns indexed by the current vertex.

    Row u of ``P @ p`` is exactly the paper's update
    ``p_i(u) = p_{i-1}(u)/2 + sum_w p_{i-1}(w) / (2 deg(w))``.
    """
    a = graph.adjacency_matrix(graph.vertices())
    deg = a.sum(axis=0)
    if np.any(deg == 0) and graph.n > 1:
        raise GraphError("lazy walks need a graph without isolated vertices")
    return 0.5 * np.eye(graph.n) + 0.5 * (a / np.maximum(deg, 1.0)[None, :])


def stationary_distribution(graph: Graph) -> np.ndarray:
    """pi(u) = deg(u) / vol(V) — the walk's unique fixed point."""
    deg = np.array([graph.degree(v) for v in graph.vertices()], dtype=float)
    return deg / (2.0 * graph.m)


def mixing_time_exact(graph: Graph, max_steps: int = 100_000) -> int:
    """tau_mix per the paper's definition, computed exactly.

    The least t with |p_t^v(u) - pi(u)| <= pi(u)/n for all u, v, found by
    powering the walk matrix (each column of P^t is p_t^v).
    """
    if not graph.is_connected():
        raise GraphError("mixing time is defined for connected graphs")
    if graph.n == 1:
        return 0
    p = lazy_walk_matrix(graph)
    pi = stationary_distribution(graph)
    tolerance = pi / graph.n
    state = np.eye(graph.n)
    for t in range(1, max_steps + 1):
        state = p @ state
        if np.all(np.abs(state - pi[:, None]) <= tolerance[:, None] + 1e-15):
            return t
    raise AssertionError(f"walk did not mix within {max_steps} steps")
