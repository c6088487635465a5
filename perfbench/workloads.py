"""The four benchmark workloads: inputs, operations, checks and digests.

Each workload class generates its inputs from the run's seed in its
constructor (that is the set-up the benchmark times as ``setup_s``),
then lists its operations.  An operation is a label plus a thunk that
calls the library's public API and returns the finished result.  The
checks compare every result with the paper's guarantee for it, and run
outside every timed region.

Library entry points are looked up on their modules at call time
(``framework.run_framework``, never a name bound at import), so the
traced run's wrappers, installed by :mod:`layers`, see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import generators
from repro.congest.message import MessageBudget
from repro.core import framework
from repro.decomposition import expander, mpx
from repro.dominating_set import distributed as mds_distributed
from repro.dominating_set.exact import exact_mds
from repro.dominating_set.util import is_dominating_set
from repro.independent_set import distributed as maxis_distributed
from repro.independent_set import greedy as mis_greedy
from repro.independent_set.exact import exact_maxis
from repro.matching import distributed as matching_distributed
from repro.matching.util import is_matching

Operation = Tuple[str, Callable[[], Any]]


def degree_solver(sub, leader, notes):
    """The trivial leader solver: every vertex learns its cluster degree."""
    return {v: sub.degree(v) for v in sub.vertices()}


def _sorted_reprs(items) -> List[str]:
    return sorted(repr(x) for x in items)


def _partition(groups) -> List[List[str]]:
    return sorted(_sorted_reprs(group) for group in groups)


def digest(value: Any) -> str:
    """Canonical SHA-256 of a JSON-able value (sorted keys, no spaces)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base class: ``operations``, ``check`` and ``canonical`` per op."""

    def operations(self) -> List[Operation]:
        raise NotImplementedError

    def check(self, index: int, result: Any) -> Optional[str]:
        """None when op ``index``'s result meets its guarantee, else why not."""
        raise NotImplementedError

    def canonical(self, index: int, result: Any) -> Any:
        """A JSON-able, order-free rendering of op ``index``'s output."""
        raise NotImplementedError


class Framework(Workload):
    """Theorem 2.6 partition + gather with the trivial degree solver."""

    SIZES = (512, 512, 1024, 1024)
    EPSILON = 0.9
    PHI = 0.05

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.instances = []
        for n in self.SIZES:
            g = generators.delaunay_planar_graph(n, seed=rng.getrandbits(32))
            self.instances.append((g, rng.getrandbits(32)))

    def operations(self) -> List[Operation]:
        return [
            (f"framework[delaunay n={g.n}]",
             lambda g=g, s=s: framework.run_framework(
                 g, self.EPSILON, solver=degree_solver, phi=self.PHI, seed=s))
            for g, s in self.instances
        ]

    def check(self, index, result):
        g, _ = self.instances[index]
        failed = [c.index for c in result.clusters if not c.success]
        if failed:
            return f"clusters {failed[:5]} failed"
        for run in result.clusters:
            sub = g.subgraph(run.vertices)
            for v in run.vertices:
                if result.answers.get(v) != sub.degree(v):
                    return f"vertex {v!r} got {result.answers.get(v)!r}"
        budget = MessageBudget(g.n).bits
        if result.metrics.max_message_bits > budget:
            return (f"max_message_bits {result.metrics.max_message_bits} "
                    f"> budget {budget}")
        return None

    def canonical(self, index, result):
        return {
            "clusters": _partition(c.vertices for c in result.clusters),
            "leaders": _sorted_reprs(result.leaders),
            "answers": sorted((repr(v), a) for v, a in result.answers.items()),
            "metrics": result.metrics.summary(),
        }


class Decompose(Workload):
    """(eps, phi) expander decomposition over the five E01 families."""

    EPSILONS = (0.1, 0.2, 0.3, 0.4)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.graphs = [
            ("grid", generators.grid_graph(32, 32)),
            ("torus", generators.toroidal_grid_graph(32, 32)),
            ("tri-grid", generators.triangulated_grid_graph(32, 32)),
            ("delaunay", generators.delaunay_planar_graph(
                1024, seed=rng.getrandbits(32))),
            ("3-tree", generators.k_tree(1024, 3, seed=rng.getrandbits(32))),
        ]
        self.instances = [
            (name, g, eps, rng.getrandbits(32))
            for name, g in self.graphs
            for eps in self.EPSILONS
        ]

    def operations(self) -> List[Operation]:
        return [
            (f"decompose[{name} eps={eps}]",
             lambda g=g, eps=eps, s=s: expander.expander_decomposition(
                 g, eps, seed=s))
            for name, g, eps, s in self.instances
        ]

    def check(self, index, result):
        _, g, eps, _ = self.instances[index]
        if len(result.cut_edges) > eps * g.m + 1e-9:
            return f"cut {len(result.cut_edges)} > eps*|E| = {eps * g.m:.1f}"
        weakest = result.min_certificate()
        if weakest < result.phi:
            return f"certificate {weakest:.5f} < phi {result.phi:.5f}"
        # Partition, cut-set and connectivity checks (raises on violation).
        expander.verify_expander_decomposition(
            result, recheck_conductance=False)
        return None

    def canonical(self, index, result):
        return {
            "clusters": _partition(result.clusters),
            "cut_edges": _sorted_reprs(result.cut_edges),
            "certificates": sorted(
                zip((min(_sorted_reprs(c)) for c in result.clusters),
                    map(repr, result.certificates))),
        }


class Local(Workload):
    """Message-heavy standalone CONGEST algorithms on n = 4096 graphs."""

    N = 4096
    LDD_EPSILON = 0.3
    REPEATS = 2  # algorithm seeds per (graph, algorithm)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.graphs = [
            ("delaunay", generators.delaunay_planar_graph(
                self.N, seed=rng.getrandbits(32))),
            ("3-tree", generators.k_tree(self.N, 3, seed=rng.getrandbits(32))),
        ]
        self.instances = [
            (algorithm, name, g, rng.getrandbits(32))
            for name, g in self.graphs
            for algorithm in ("luby-mis", "matching", "mpx-ldd")
            for _ in range(self.REPEATS)
        ]

    def operations(self) -> List[Operation]:
        calls = {
            "luby-mis": lambda g, s: mis_greedy.luby_mis(g, seed=s),
            "matching": lambda g, s:
                matching_distributed.distributed_maximal_matching(g, seed=s),
            "mpx-ldd": lambda g, s: mpx.mpx_ldd(g, self.LDD_EPSILON, seed=s),
        }
        return [
            (f"{algorithm}[{name} n={g.n}]",
             lambda call=calls[algorithm], g=g, s=s: call(g, s))
            for algorithm, name, g, s in self.instances
        ]

    def check(self, index, result):
        algorithm, _, g, _ = self.instances[index]
        output, sim = result
        if not sim.halted:
            return "simulation did not halt"
        if algorithm == "luby-mis":
            for v in g.vertices():
                inside = [u for u in g.neighbors(v) if u in output]
                if v in output and inside:
                    return f"MIS vertices {v!r} and {inside[0]!r} adjacent"
                if v not in output and not inside:
                    return f"MIS not maximal at {v!r}"
        elif algorithm == "matching":
            if not is_matching(g, output):
                return "matching invalid"
        else:
            seen = set()
            for cluster in output.clusters:
                if seen & cluster:
                    return "LDD clusters overlap"
                seen |= cluster
            if seen != set(g.vertices()):
                return "LDD clusters do not cover the vertices"
        return None

    def canonical(self, index, result):
        algorithm = self.instances[index][0]
        output, sim = result
        if algorithm == "mpx-ldd":
            rendered = _partition(output.clusters)
        else:
            rendered = _sorted_reprs(output)
        return {"output": rendered, "metrics": sim.metrics.summary()}


class Solve(Workload):
    """Distributed MAXIS (Thm 1.2) and MDS (E13) with exact leader solves.

    The graphs are fixed E04/E13 instances; the seed draws the framework
    seeds.  Exact branch and bound dominates this workload, and its cost
    varies several-fold between random graphs of one size and, on the
    8x8 grid, with the order in which the leader learns its cluster.
    The graphs below keep that spread small.  Three operations keep a
    pass short enough that a run holds several passes to take medians of.
    """

    EPSILON = 0.3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        graphs = [
            ("maxis", "tri-grid", generators.triangulated_grid_graph(10, 11)),
            ("mds", "torus", generators.toroidal_grid_graph(7, 7)),
            ("mds", "delaunay", generators.delaunay_planar_graph(60, seed=131)),
        ]
        self.instances = [
            (problem, name, g, rng.getrandbits(32))
            for problem, name, g in graphs
        ]

    def operations(self) -> List[Operation]:
        calls = {
            "maxis": lambda g, s: maxis_distributed.distributed_maxis(
                g, self.EPSILON, seed=s),
            "mds": lambda g, s: mds_distributed.distributed_mds(
                g, self.EPSILON, seed=s),
        }
        return [
            (f"{problem}[{name} n={g.n}]",
             lambda call=calls[problem], g=g, s=s: call(g, s))
            for problem, name, g, s in self.instances
        ]

    def check(self, index, result):
        problem, _, g, _ = self.instances[index]
        if problem == "maxis":
            chosen = result.independent_set
            if any(u in chosen for v in chosen for u in g.neighbors(v)):
                return "independent set is dependent"
            optimum = len(exact_maxis(g))
            if len(chosen) < (1 - self.EPSILON) * optimum:
                return f"MAXIS {len(chosen)} < (1-eps) * {optimum}"
        else:
            chosen = result.dominating_set
            if not is_dominating_set(g, chosen):
                return "set does not dominate"
            optimum = len(exact_mds(g))
            if len(chosen) > (1 + self.EPSILON) * optimum:
                return f"MDS {len(chosen)} > (1+eps) * {optimum}"
        return None

    def canonical(self, index, result):
        problem = self.instances[index][0]
        chosen = (result.independent_set if problem == "maxis"
                  else result.dominating_set)
        return {
            "chosen": _sorted_reprs(chosen),
            "clusters": _partition(c.vertices for c in result.framework.clusters),
            "metrics": result.framework.metrics.summary(),
        }


WORKLOADS: Dict[str, type] = {
    "framework": Framework,
    "decompose": Decompose,
    "local": Local,
    "solve": Solve,
}
