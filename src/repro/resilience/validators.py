"""Post-run validators: grade what a faulted execution produced.

A fault-injection experiment is only meaningful if the outcome is
*judged*: did the algorithm still produce a correct object, a degraded
but usable one, or garbage?  Each validator here re-checks a result
against the original graph — independently of the distributed
execution that produced it — and returns a :class:`Verdict`:

``correct``
    The object satisfies its full specification (e.g. the
    independent set is independent *and* maximal).
``degraded(ratio)``
    The object is structurally sound but quantitatively short of
    spec; ``ratio`` in (0, 1) says how close it came (e.g. the
    fraction of vertices a framework run actually answered).
``failed``
    The object violates a hard invariant (an edge inside an
    "independent" set, a crashed run that produced nothing) and must
    not be used.
``stalled``
    The execution never terminated — the network adversity (a
    partition that outlasted the protocol, sustained churn, unbounded
    delay) kept the algorithm from halting within its round budget.
    Whatever partial object it left behind is not graded.

Experiment cells in the E11/E15 suites attach one verdict per run, so
the fault-tolerance tables report *graded outcomes*, not just timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from ..graph import Graph
from ..matching.util import is_matching

#: Verdict status values, in decreasing order of health.
CORRECT = "correct"
DEGRADED = "degraded"
FAILED = "failed"
STALLED = "stalled"


@dataclass(frozen=True)
class Verdict:
    """Graded outcome of one validated result."""

    status: str
    ratio: float
    detail: str = ""

    @classmethod
    def correct(cls, detail: str = "") -> "Verdict":
        return cls(CORRECT, 1.0, detail)

    @classmethod
    def degraded(cls, ratio: float, detail: str = "") -> "Verdict":
        return cls(DEGRADED, max(0.0, min(1.0, ratio)), detail)

    @classmethod
    def failed(cls, detail: str = "") -> "Verdict":
        return cls(FAILED, 0.0, detail)

    @classmethod
    def stalled(cls, detail: str = "") -> "Verdict":
        return cls(STALLED, 0.0, detail)

    @property
    def ok(self) -> bool:
        """Usable result (correct or merely degraded)?"""
        return self.status not in (FAILED, STALLED)

    def label(self) -> str:
        """Compact table cell: ``correct`` / ``degraded(0.87)`` /
        ``failed`` / ``stalled``."""
        if self.status == DEGRADED:
            return f"degraded({self.ratio:.2f})"
        return self.status

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "ratio": self.ratio,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Verdict":
        return cls(
            status=data["status"],
            ratio=data["ratio"],
            detail=data.get("detail", ""),
        )


def validate_independent_set(graph: Graph, independent: Set) -> Verdict:
    """Independence is a hard invariant; maximality grades quality."""
    independent = set(independent)
    for v in independent:
        if not graph.has_vertex(v):
            return Verdict.failed(f"vertex {v!r} not in the graph")
    for u, v in graph.edges():
        if u in independent and v in independent:
            return Verdict.failed(f"edge ({u!r}, {v!r}) inside the set")
    addable = [
        v
        for v in graph.vertices()
        if v not in independent
        and not any(u in independent for u in graph.neighbors(v))
    ]
    if not addable:
        return Verdict.correct(f"maximal, size={len(independent)}")
    return Verdict.degraded(
        len(independent) / (len(independent) + len(addable)),
        f"{len(addable)} vertices still addable",
    )


def validate_matching(graph: Graph, matching: Iterable[Tuple]) -> Verdict:
    """Matching validity is hard; maximality grades quality."""
    edges = list(matching)
    if not is_matching(graph, edges):
        return Verdict.failed("edge set is not a matching")
    covered: Set = set()
    for u, v in edges:
        covered.add(u)
        covered.add(v)
    addable = sum(
        1 for u, v in graph.edges() if u not in covered and v not in covered
    )
    if addable == 0:
        return Verdict.correct(f"maximal, size={len(edges)}")
    return Verdict.degraded(
        len(edges) / (len(edges) + addable),
        f"{addable} augmenting edges remain",
    )


def validate_framework(result, graph: Optional[Graph] = None) -> Verdict:
    """Grade a Theorem 2.6 framework run by answer coverage.

    ``correct`` when every vertex received an answer and every cluster
    run succeeded; ``degraded`` with the covered-vertex ratio when the
    run limped (some cluster failed its gather / degree / diameter
    checks, or some vertices went unanswered); ``failed`` when nothing
    was answered at all.
    """
    graph = graph if graph is not None else result.graph
    total = graph.n
    answered = sum(1 for v in graph.vertices() if v in result.answers)
    clusters_ok = all(run.success for run in result.clusters)
    if answered == 0:
        return Verdict.failed("no vertex received an answer")
    if answered == total and clusters_ok:
        return Verdict.correct(f"{answered}/{total} answered")
    failed_clusters = sum(1 for run in result.clusters if not run.success)
    return Verdict.degraded(
        answered / total,
        f"{answered}/{total} answered, {failed_clusters} cluster(s) failed",
    )
