"""Exact maximum independent set by branch and bound.

Designed for the sparse cluster-sized graphs the framework produces:

* degree-0/1 reductions peel most of a minor-free graph for free;
* degree-2 vertices are eliminated exactly — triangle ears are taken
  outright, and paths u - v - w with non-adjacent u, w are *folded*
  (alpha(G) = alpha(G/fold) + 1), the reduction that makes planar
  instances tractable;
* connected components are solved independently;
* branching targets the highest-degree vertex, and the "exclude"
  branch is skipped whenever a matching-based upper bound proves it
  cannot win.

A node budget turns worst-case blowups into a loud
:class:`SolverBudgetError` instead of a silent hang.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import SolverBudgetError, SolverError
from ..graph import Graph
from ..obs import registry as _telemetry

#: Default search budget (branch nodes) before giving up.
DEFAULT_NODE_BUDGET = 2_000_000


class _MaxisSearch:
    def __init__(self, graph: Graph, budget: int) -> None:
        self.adj: Dict = {
            v: set(graph.neighbors(v)) for v in graph.vertices()
        }
        self.budget = budget
        self.nodes = 0
        self._fold_counter = 0

    # ------------------------------------------------------------------
    def solve(self, vertices: Set) -> Set:
        """Best independent set within the induced subgraph on ``vertices``.

        Fold vertices created during this call are expanded back to
        original vertices before returning, so callers always see
        genuine vertices (possibly including folds created by *their*
        callers, which they expand in turn).
        """
        self.nodes += 1
        if self.nodes > self.budget:
            raise SolverBudgetError("exact MAXIS exceeded its node budget")

        chosen: Set = set()
        remaining = set(vertices)
        # Folds performed in this call, in creation order:
        # (fold_vertex, original_v, neighbor_u, neighbor_w).
        local_folds: List[Tuple] = []

        # Reductions to a (min-degree >= 3) kernel.
        changed = True
        while changed:
            changed = False
            for v in list(remaining):
                if v not in remaining:
                    continue  # removed earlier in this same sweep
                live = self.adj[v] & remaining
                if len(live) == 0:
                    chosen.add(v)
                    remaining.discard(v)
                    changed = True
                elif len(live) == 1:
                    # Taking a leaf is never worse than its neighbor.
                    chosen.add(v)
                    remaining.discard(v)
                    remaining -= live
                    changed = True
                elif len(live) == 2:
                    u, w = live
                    remaining.discard(v)
                    remaining.discard(u)
                    remaining.discard(w)
                    if w in self.adj[u]:
                        # Triangle ear: u and w exclude each other, so
                        # taking v is always optimal.
                        chosen.add(v)
                    else:
                        f = self._fold(v, u, w)
                        local_folds.append((f, v, u, w))
                        remaining.add(f)
                    changed = True

        if remaining:
            components = self._components(remaining)
            if len(components) > 1:
                best: Set = set()
                for comp in components:
                    best |= self.solve(comp)
            else:
                best = self._branch(remaining)
        else:
            best = set()

        result = chosen | best
        # Expand this call's folds, newest first (a later fold may have
        # an earlier fold vertex as one of its endpoints), and retire
        # each fold vertex from the shared adjacency — otherwise fold
        # vertices accumulate across the whole search and every
        # neighborhood intersection slows down.
        for f, v, u, w in reversed(local_folds):
            if f in result:
                result.discard(f)
                result.add(u)
                result.add(w)
            else:
                result.add(v)
            for x in self.adj[f]:
                if x in self.adj:
                    self.adj[x].discard(f)
            del self.adj[f]
        return result

    def _branch(self, remaining: Set) -> Set:
        """Branch on the highest-degree vertex of a connected kernel."""
        v = None
        best_deg = -1
        for u in remaining:
            deg = len(self.adj[u] & remaining)
            if deg > best_deg:
                best_deg = deg
                v = u
        closed = (self.adj[v] & remaining) | {v}

        with_v = self.solve(remaining - closed) | {v}
        rest = remaining - {v}
        if self._upper_bound(rest) > len(with_v):
            without = self.solve(rest)
            if len(without) > len(with_v):
                return without
        return with_v

    # ------------------------------------------------------------------
    def _fold(self, v, u, w):
        """Create the folded vertex for the induced path u - v - w."""
        self._fold_counter += 1
        f = ("fold#", self._fold_counter)
        neighbors = (self.adj[u] | self.adj[w]) - {u, v, w}
        self.adj[f] = set(neighbors)
        for x in neighbors:
            self.adj[x].add(f)
        return f

    def _upper_bound(self, remaining: Set) -> int:
        """Clique-packing bound: greedy disjoint triangles, then edges.

        An independent set contains at most one vertex of each packed
        triangle (cost 2) and of each matched edge (cost 1).  On the
        triangulation-like kernels minor-free graphs produce, the
        triangle layer makes this far sharper than a pure matching
        bound.
        """
        used: Set = set()
        cost = 0
        for u in remaining:
            if u in used:
                continue
            nbrs = [
                w for w in self.adj[u] if w in remaining and w not in used
            ]
            found_triangle = False
            for i, w in enumerate(nbrs):
                for x in nbrs[i + 1:]:
                    if x in self.adj[w]:
                        used.update((u, w, x))
                        cost += 2
                        found_triangle = True
                        break
                if found_triangle:
                    break
            if not found_triangle and nbrs:
                used.add(u)
                used.add(nbrs[0])
                cost += 1
        return len(remaining) - cost

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


def two_improvement_is(graph: Graph, start: Set) -> Set:
    """Improve an independent set by (1-out, 2-in) swaps to a local optimum.

    Classic planar-IS local search: remove one chosen vertex whenever
    that frees two addable vertices.  Blocker sets are maintained
    incrementally, so each sweep is near-linear.  Used as the fallback
    when the exact search exceeds its node budget on an oversized
    cluster.
    """
    chosen = set(start)
    # blockers[v] = chosen neighbors of a non-chosen vertex v.
    blockers: Dict = {
        v: {u for u in graph.neighbors(v) if u in chosen}
        for v in graph.vertices()
        if v not in chosen
    }

    def add(v) -> None:
        chosen.add(v)
        blockers.pop(v, None)
        for w in graph.neighbors(v):
            if w in blockers:
                blockers[w].add(v)

    def remove(u) -> None:
        chosen.discard(u)
        blockers[u] = {w for w in graph.neighbors(u) if w in chosen}
        for w in graph.neighbors(u):
            if w in blockers:
                blockers[w].discard(u)

    improved = True
    while improved:
        improved = False
        # Free additions.
        for v in [v for v, b in blockers.items() if not b]:
            if v in blockers and not blockers[v]:
                add(v)
                improved = True
        # 1-out / 2-in swaps.
        for u in list(chosen):
            if u not in chosen:
                continue
            candidates = [
                v
                for v in graph.neighbors(u)
                if v in blockers and blockers[v] == {u}
            ]
            done = False
            for i, a in enumerate(candidates):
                for b in candidates[i + 1:]:
                    if not graph.has_edge(a, b):
                        remove(u)
                        add(a)
                        add(b)
                        improved = True
                        done = True
                        break
                if done:
                    break
    return chosen


def solve_maxis(graph: Graph, node_budget: int = 100_000) -> Set:
    """Exact MAXIS when affordable, strong local search otherwise.

    The framework's leaders use this solver: a bounded run of the exact
    branch and bound, falling back to min-degree greedy plus
    2-improvement local search when the cluster is beyond the exact
    envelope.  The fallback is only approximate, which experiment E4
    accounts for by reporting measured ratios.  Only budget exhaustion
    falls back; an internal-check failure propagates.  Counts
    ``solve.maxis.nodes`` and ``solve.maxis.fallbacks`` when telemetry
    is on.
    """
    from .greedy import greedy_min_degree_is

    search = _MaxisSearch(graph, node_budget)
    try:
        return _run_checked(graph, search)
    except SolverBudgetError:
        _telemetry.count("solve.maxis.fallbacks")
        return two_improvement_is(graph, greedy_min_degree_is(graph))
    finally:
        _telemetry.count("solve.maxis.nodes", search.nodes)


def exact_maxis(graph: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> Set:
    """Compute a maximum independent set of ``graph``.

    Exact; exponential in the worst case but fast on the sparse
    clusters the framework produces (degree-2 folding makes planar
    instances near-linear in practice).  Raises
    :class:`SolverBudgetError` if the branch-node budget is exhausted.
    """
    return _run_checked(graph, _MaxisSearch(graph, node_budget))


def _run_checked(graph: Graph, search: _MaxisSearch) -> Set:
    result = search.solve(set(graph.vertices()))
    # Safety net: the result must be independent.
    for v in result:
        if any(u in result for u in graph.neighbors(v)):
            raise SolverError("internal error: produced a dependent set")
    return result
