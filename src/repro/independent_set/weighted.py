"""Weighted maximum independent set (extension).

The paper's Section 1.1 surveys *weighted* MAXIS baselines
(Bar-Yehuda et al. [10]: (1/Delta)-approx in MIS(n, Delta) * log W
rounds); the framework upgrades them on minor-free networks the same
way as the unweighted problem: exact per-cluster solves plus conflict
resolution on cut edges (dropping the lighter endpoint).

Approximation note: the unweighted Section 3.1 charging uses
alpha(G) = Theta(n).  The weighted analogue alpha_w(G) >=
W_total / (degeneracy + 1) holds via greedy coloring, but a cut edge
can now cost up to W = max weight, so the guaranteed ratio carries a
W_max/W_avg factor; experiment measurements (test suite) show ratios
track 1 - epsilon on the integer-weight workloads the paper assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..core.framework import FrameworkResult, density_bound, run_framework
from ..errors import SolverBudgetError, SolverError
from ..graph import Graph
from ..rng import SeedLike, ensure_rng

#: Default search budget (branch nodes) before giving up.
DEFAULT_NODE_BUDGET = 300_000

Weights = Dict[Any, float]


def greedy_weighted_is(graph: Graph, weights: Weights) -> Set:
    """Greedy by weight-to-coverage ratio w(v) / (deg(v) + 1)."""
    remaining = set(graph.vertices())
    chosen: Set = set()
    while remaining:
        best = max(
            remaining,
            key=lambda v: (
                weights.get(v, 0.0)
                / (1 + sum(1 for u in graph.neighbors(v) if u in remaining)),
                repr(v),
            ),
        )
        chosen.add(best)
        remaining.discard(best)
        remaining -= set(graph.neighbors(best))
    return chosen


class _WeightedSearch:
    def __init__(self, graph: Graph, weights: Weights, budget: int) -> None:
        self.adj: Dict = {
            v: set(graph.neighbors(v)) for v in graph.vertices()
        }
        self.weights = weights
        self.budget = budget
        self.nodes = 0

    def solve(self, remaining: Set) -> Set:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SolverBudgetError(
                "exact weighted MAXIS exceeded its node budget"
            )

        chosen: Set = set()
        live = set(remaining)
        # Reduction: an isolated vertex with positive weight is free.
        for v in list(live):
            if not (self.adj[v] & live):
                if self.weights.get(v, 0.0) > 0:
                    chosen.add(v)
                live.discard(v)
        if not live:
            return chosen

        components = self._components(live)
        if len(components) > 1:
            for comp in components:
                chosen |= self.solve(comp)
            return chosen

        v = max(
            live,
            key=lambda u: (len(self.adj[u] & live), self.weights.get(u, 0.0)),
        )
        closed = (self.adj[v] & live) | {v}
        with_v = self.solve(live - closed)
        if self.weights.get(v, 0.0) > 0:
            with_v = with_v | {v}
        rest = live - {v}
        if self._upper_bound(rest) > self._weight(with_v):
            without = self.solve(rest)
            if self._weight(without) > self._weight(with_v):
                return chosen | without
        return chosen | with_v

    def _weight(self, vertices: Set) -> float:
        return sum(self.weights.get(v, 0.0) for v in vertices)

    def _upper_bound(self, remaining: Set) -> float:
        """Total positive weight minus the lighter endpoint of a greedy
        matching (at most one endpoint of each edge can be chosen)."""
        total = sum(
            max(0.0, self.weights.get(v, 0.0)) for v in remaining
        )
        used: Set = set()
        discount = 0.0
        for u in remaining:
            if u in used:
                continue
            for w in self.adj[u]:
                if w in remaining and w not in used:
                    used.add(u)
                    used.add(w)
                    discount += max(
                        0.0,
                        min(
                            self.weights.get(u, 0.0),
                            self.weights.get(w, 0.0),
                        ),
                    )
                    break
        return total - discount

    def _components(self, remaining: Set) -> List[Set]:
        comps: List[Set] = []
        seen: Set = set()
        for start in remaining:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if w in remaining and w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps


def exact_weighted_maxis(
    graph: Graph,
    weights: Weights,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Set:
    """Maximum-weight independent set by branch and bound."""
    result = _WeightedSearch(graph, weights, node_budget).solve(
        set(graph.vertices())
    )
    for v in result:
        if any(u in result for u in graph.neighbors(v)):
            raise SolverError("internal error: produced a dependent set")
    return result


def solve_weighted_maxis(
    graph: Graph, weights: Weights, node_budget: int = 100_000
) -> Set:
    """Exact when affordable, ratio-greedy otherwise.

    Only budget exhaustion falls back; an internal-check failure
    propagates.
    """
    try:
        return exact_weighted_maxis(graph, weights, node_budget=node_budget)
    except SolverBudgetError:
        return greedy_weighted_is(graph, weights)


@dataclass
class DistributedWeightedISResult:
    independent_set: Set
    weight: float
    epsilon: float
    framework: FrameworkResult


def distributed_weighted_maxis(
    graph: Graph,
    weights: Weights,
    epsilon: float,
    phi: Optional[float] = None,
    seed: SeedLike = None,
) -> DistributedWeightedISResult:
    """Framework-based weighted MAXIS on minor-free networks.

    Vertex weights must be non-negative integers (the paper's
    convention); each vertex annotates its HELLO token with its weight,
    so leaders solve the genuine weighted subproblem.  Conflicts on cut
    edges drop the lighter endpoint.
    """
    if not 0.0 < epsilon < 1.0:
        raise SolverError("epsilon must lie in (0, 1)")
    for v in graph.vertices():
        w = weights.get(v, 0)
        if w < 0 or not float(w).is_integer():
            raise SolverError(
                "weights must be non-negative integers"
            )
    rng = ensure_rng(seed)
    d = density_bound(graph)
    epsilon_prime = epsilon / (2.0 * d + 1.0)

    def annotate(v: Any) -> int:
        return int(weights.get(v, 0))

    def solver(sub: Graph, leader: Any, notes: Dict) -> Dict[Any, Any]:
        local_weights = {v: float(notes.get(v, 0) or 0) for v in sub.vertices()}
        chosen = solve_weighted_maxis(sub, local_weights)
        return {v: (1 if v in chosen else 0) for v in sub.vertices()}

    framework = run_framework(
        graph,
        epsilon_prime,
        solver=solver,
        phi=phi,
        seed=rng.getrandbits(64),
        annotate=annotate,
    )
    candidate = {v for v, take in framework.answers.items() if take == 1}
    dropped: Set = set()
    for u, v in framework.decomposition.cut_edges:
        if u in candidate and v in candidate and u not in dropped and v not in dropped:
            lighter = min(
                (u, v), key=lambda x: (weights.get(x, 0), repr(x))
            )
            dropped.add(lighter)
    independent = candidate - dropped
    for v in independent:
        if any(u in independent for u in graph.neighbors(v)):
            raise SolverError("distributed weighted MAXIS produced a dependent set")
    return DistributedWeightedISResult(
        independent_set=independent,
        weight=sum(weights.get(v, 0) for v in independent),
        epsilon=epsilon,
        framework=framework,
    )
