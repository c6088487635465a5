"""Exact minimum dominating set by branch and bound.

Standard scheme: pick an undominated vertex v (one of its closed
neighbors must be chosen) and branch over the candidates in N[v],
ordered by coverage.  The greedy solution seeds the incumbent, and a
coverage bound (remaining undominated / largest cover) prunes.  Sized for
the cluster-scale sparse graphs the framework produces, with a node
budget and a greedy fallback wrapper (:func:`solve_mds`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import SolverBudgetError, SolverError
from ..graph import Graph
from ..obs import registry as _telemetry
from .greedy import greedy_mds

#: Default search budget (branch nodes) before giving up.
DEFAULT_NODE_BUDGET = 500_000

#: Set-bit count of a non-negative int (``int.bit_count`` needs 3.10).
_popcount = getattr(int, "bit_count", None) or (lambda x: bin(x).count("1"))


class _MDSSearch:
    """Branch and bound over (chosen, undominated) states.

    Coverage counts are popcounts over int bitmasks: ``cmasks[v]`` is
    the closed neighbourhood of ``v`` with one bit per vertex, and
    ``umask`` mirrors ``undominated``.  Branching decisions still
    iterate the sets, so ties break exactly as in a set-only search.
    """

    def __init__(self, graph: Graph, budget: int) -> None:
        self.graph = graph
        vertices = graph.vertices()
        self.closed: Dict = {
            v: {v, *graph.neighbors(v)} for v in vertices
        }
        self.size: Dict = {v: len(nbhd) for v, nbhd in self.closed.items()}
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        self.cmask: Dict = {
            v: sum(bit[u] for u in nbhd) for v, nbhd in self.closed.items()
        }
        self.cmasks: List[int] = list(self.cmask.values())
        self.cap = max(self.size.values(), default=1)
        self.budget = budget
        self.nodes = 0
        self.best: Set = set(vertices)

    def run(self) -> Set:
        incumbent = greedy_mds(self.graph)
        self.best = set(incumbent)
        vertices = self.graph.vertices()
        self._search(set(), set(vertices), (1 << len(vertices)) - 1)
        return self.best

    def _search(self, chosen: Set, undominated: Set, umask: int) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SolverBudgetError("exact MDS exceeded its node budget")
        if not undominated:
            if len(chosen) < len(self.best):
                self.best = set(chosen)
            return
        if len(chosen) + 1 >= len(self.best):
            return  # even one more vertex cannot beat the incumbent
        # Coverage bound: each added vertex dominates <= max_cover
        # <= Delta + 1 undominated vertices.  The static Delta + 1 cap
        # is tried first; whenever it prunes, the exact count would too.
        remaining = len(undominated)
        room = len(self.best) - len(chosen)
        if (remaining + self.cap - 1) // self.cap >= room:
            return
        max_cover = max(map(_popcount, map(umask.__and__, self.cmasks)))
        if (remaining + max_cover - 1) // max_cover >= room:
            return

        # Branch on the undominated vertex with the fewest candidates.
        v = min(undominated, key=self.size.__getitem__)
        cmask = self.cmask
        candidates = sorted(
            self.closed[v],
            key=lambda u: -_popcount(cmask[u] & umask),
        )
        for u in candidates:
            self._search(
                chosen | {u},
                undominated - self.closed[u],
                umask & ~cmask[u],
            )


def exact_mds(graph: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> Set:
    """Compute a minimum dominating set; raises on budget exhaustion."""
    return _run_checked(graph, _MDSSearch(graph, node_budget))


def _run_checked(graph: Graph, search: _MDSSearch) -> Set:
    if graph.n == 0:
        return set()
    result = search.run()
    from .util import is_dominating_set

    if not is_dominating_set(graph, result):
        raise SolverError("internal error: produced a non-dominating set")
    return result


def solve_mds(graph: Graph, node_budget: int = 100_000) -> Set:
    """Exact MDS when affordable, greedy otherwise (the leaders' solver).

    Only budget exhaustion falls back; an internal-check failure
    propagates.  Counts ``solve.mds.nodes`` and ``solve.mds.fallbacks``
    when telemetry is on.
    """
    search = _MDSSearch(graph, node_budget)
    try:
        return _run_checked(graph, search)
    except SolverBudgetError:
        _telemetry.count("solve.mds.fallbacks")
        return greedy_mds(graph)
    finally:
        _telemetry.count("solve.mds.nodes", search.nodes)
