"""Tests for the distributed MPX exponential-shift LDD."""

import contextlib
import math
import statistics

import pytest

from repro.congest import (
    FaultPlan,
    TraceSession,
    VertexAlgorithm,
    use_engine,
    use_faults,
)
from repro.congest import algorithm as algorithm_module
from repro.decomposition import mpx as mpx_module
from repro.decomposition import mpx_ldd, verify_ldd
from repro.decomposition.mpx import MPXClustering
from repro.errors import DecompositionError
from repro.generators import (
    cycle_graph,
    grid_graph,
    random_tree,
)
from tests.conftest import delaunay_or_skip as delaunay_planar_graph
from repro.graph import Graph
from repro.obs.registry import telemetry_scope


class TestMPX:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid_graph(10, 10),
            lambda: delaunay_planar_graph(100, seed=1),
            lambda: cycle_graph(80),
            lambda: random_tree(80, seed=2),
        ],
        ids=["grid", "delaunay", "cycle", "tree"],
    )
    def test_clusters_are_connected_partition(self, make):
        g = make()
        ldd, _sim = mpx_ldd(g, 0.3, seed=3)
        seen = set()
        for cluster in ldd.clusters:
            assert g.subgraph(cluster).is_connected()
            assert not (seen & cluster)
            seen |= cluster
        assert seen == set(g.vertices())

    def test_expected_cut_fraction_near_epsilon(self):
        g = grid_graph(12, 12)
        epsilon = 0.3
        cuts = [
            mpx_ldd(g, epsilon, seed=seed)[0].cut_fraction()
            for seed in range(8)
        ]
        # Expected cut <= beta = eps/2; allow generous sampling noise.
        assert statistics.mean(cuts) <= epsilon

    def test_diameter_log_over_epsilon(self):
        g = delaunay_planar_graph(120, seed=4)
        epsilon = 0.25
        ldd, _ = mpx_ldd(g, epsilon, seed=5)
        bound = 8 * math.log(g.n + 2) / epsilon
        assert ldd.max_diameter() <= bound

    def test_runs_within_round_budget(self):
        g = grid_graph(8, 8)
        _, sim = mpx_ldd(g, 0.3, seed=6)
        assert sim.halted
        beta = 0.15
        cap = 4 * math.log(g.n + 2) / beta
        assert sim.metrics.rounds <= cap + 8

    def test_messages_fit_budget(self):
        from repro.congest.message import MessageBudget

        g = delaunay_planar_graph(80, seed=7)
        _, sim = mpx_ldd(g, 0.2, seed=8)
        assert sim.metrics.max_message_bits <= MessageBudget(g.n).bits

    def test_deterministic_by_seed(self):
        g = grid_graph(6, 6)
        a, _ = mpx_ldd(g, 0.3, seed=9)
        b, _ = mpx_ldd(g, 0.3, seed=9)
        assert {frozenset(c) for c in a.clusters} == {
            frozenset(c) for c in b.clusters
        }

    def test_invalid_epsilon(self):
        with pytest.raises(DecompositionError):
            mpx_ldd(grid_graph(3, 3), 0.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(DecompositionError):
            mpx_ldd(Graph(), 0.3)

    def test_beta_controls_granularity(self):
        g = grid_graph(12, 12)
        coarse, _ = mpx_ldd(g, 0.3, seed=10, beta=0.05)
        fine, _ = mpx_ldd(g, 0.3, seed=10, beta=0.8)
        assert len(fine.clusters) >= len(coarse.clusters)


# ----------------------------------------------------------------------
# Scheduling hints are invisible: MPX vertices sleep between
# improvements, yet every output and metric matches a never-idle run.
# ----------------------------------------------------------------------


class _NeverIdle(MPXClustering):
    """MPX with the base-class hints restored: steps every round."""

    is_idle = VertexAlgorithm.is_idle
    next_wakeup = VertexAlgorithm.next_wakeup


def _hint_plans():
    # Crashes land while the shifted-BFS wave is still moving and
    # rejoins come after it has settled, so a snapshot taken at the
    # wrong round restores a different best key.
    crashes = tuple((v, 4 + 3 * k) for k, v in enumerate(range(7, 300, 41)))
    rejoins = tuple((v, r + 11) for v, r in crashes)
    plans = {
        "none": None,
        "crash": FaultPlan(seed=5, crashes=crashes),
        "delay": FaultPlan(seed=5, delay=0.2),
        "drop": FaultPlan(seed=5, drop=0.1),
    }
    for interval in (1, 2, 3, 5):
        plans[f"rejoin-{interval}"] = FaultPlan(
            seed=5,
            crashes=crashes,
            rejoins=rejoins,
            checkpoint_interval=interval,
        )
    return plans


_HINT_PLANS = _hint_plans()
_KERNEL_PLANS = ("none", "crash")  # the plans under which kernels engage

#: (plan, engine, kernels, batched delivery)
_HINT_CASES = [
    (plan, "fast", kernels, batched)
    for plan in _KERNEL_PLANS
    for kernels, batched in ((True, True), (True, False), (False, False))
] + [
    (plan, "fast", True, True)
    for plan in _HINT_PLANS
    if plan not in _KERNEL_PLANS
] + [(plan, "reference", False, False) for plan in _HINT_PLANS]


def _run_mpx(monkeypatch, cls, graph, plan, engine, kernels, batched):
    faults = use_faults(plan) if plan is not None else contextlib.nullcontext()
    with monkeypatch.context() as mp:
        mp.setattr(mpx_module, "MPXClustering", cls)
        mp.setattr(algorithm_module, "_kernels_enabled", kernels)
        mp.setattr(algorithm_module, "_batch_delivery_enabled", batched)
        with use_engine(engine), faults, TraceSession() as session:
            with telemetry_scope() as registry:
                _, sim = mpx_ldd(graph, 0.3, seed=11)
    return sim, session.recorders[0], registry


@pytest.mark.parametrize(
    "plan, engine, kernels, batched",
    _HINT_CASES,
    ids=[
        f"{p}-{e}" + ("-kernel" if k else "") + ("-batched" if b else "")
        for p, e, k, b in _HINT_CASES
    ],
)
def test_mpx_hints_are_invisible(monkeypatch, plan, engine, kernels, batched):
    graph = delaunay_planar_graph(300, seed=3)
    hinted, trace, registry = _run_mpx(
        monkeypatch, MPXClustering, graph, _HINT_PLANS[plan], engine,
        kernels, batched,
    )
    never_idle, _, _ = _run_mpx(
        monkeypatch, _NeverIdle, graph, _HINT_PLANS[plan], engine,
        False, False,
    )
    assert hinted.outputs == never_idle.outputs
    assert hinted.crashed == never_idle.crashed
    assert hinted.metrics.summary() == never_idle.metrics.summary()
    engaged = registry.counters.get("congest.kernel.engaged", 0)
    assert engaged == (1 if engine == "fast" and kernels
                       and plan in _KERNEL_PLANS else 0)
    if plan == "none":
        # Quiet rounds are fast-forwarded, not executed.
        assert len(trace.rounds) < hinted.metrics.rounds
    if plan.startswith("rejoin"):
        assert hinted.metrics.vertices_rejoined > 0


def test_rounds_skipped_telemetry_equal_across_engines():
    graph = grid_graph(12, 12)
    published = []
    for engine in ("fast", "reference"):
        with use_engine(engine), telemetry_scope() as registry:
            _, sim = mpx_ldd(graph, 0.3, seed=4)
        skipped = registry.counters.get("congest.rounds_skipped", 0)
        assert 0 < skipped < sim.metrics.rounds
        assert "rounds_skipped" not in sim.metrics.summary()
        assert "rounds_skipped" not in sim.metrics.to_dict()
        published.append(skipped)
    assert published[0] == published[1]
