"""Differential tests for the columnar round kernels.

The kernel layer's whole contract is *bit-identity*: a registered
kernel may only change how fast a round executes, never anything
observable.  Every test here runs the same simulation twice — kernels
forced on and forced off — and pins outputs, metrics, per-round
message counts, structured traces, telemetry, and the per-vertex RNG
streams to be exactly equal.  The differential matrix additionally
runs the kernelized side with batched (columnar send-plan) delivery
both on and off, so the batching layer is held to the same bit-parity
bar, including its error paths (oversized messages, strict capacity
violations).  A second group covers the activation rules (thresholds,
fault plans, missing NumPy, the ``REPRO_NO_KERNELS`` and
``REPRO_NO_BATCH_DELIVERY`` escape hatches) and checkpoint round-trips
across kernel and batch modes.
"""

from __future__ import annotations

import pytest

from repro import rng as rng_mod
from repro.congest import algorithm as algorithm_mod
from repro.congest.algorithm import (
    VertexAlgorithm,
    batch_delivery_enabled,
    kernel_class_for,
    kernels_enabled,
    register_kernel,
    set_batch_delivery_enabled,
    set_kernels_enabled,
)
from repro.congest.checkpoint import resume_simulation
from repro.congest.faults import FaultPlan
from repro.congest.kernels import KernelBase
from repro.congest.network import CongestSimulator
from repro.congest.trace import TraceRecorder
from repro.errors import MessageTooLargeError, ProtocolError
from repro.decomposition.mpx import MPXClustering, MPXKernel
from repro.generators import gnp_random_graph, grid_graph, k_tree
from repro.independent_set.greedy import LubyKernel, LubyMIS
from repro.matching.distributed import (
    ProposalMatching,
    ProposalMatchingKernel,
)
from repro.obs.registry import telemetry_scope
from repro.rng import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="kernel differential tests require numpy"
)


# ----------------------------------------------------------------------
# The differential matrix: algorithm x generator x seed x fault plan
# ----------------------------------------------------------------------

ALGORITHMS = {
    "luby": (lambda v: LubyMIS(20), 44),
    "mpx": (lambda v: MPXClustering(0.4, 12.0, 16), 18),
    "matching": (lambda v: ProposalMatching(16), 54),
}

GENERATORS = {
    "gnp": lambda seed: gnp_random_graph(40, 0.12, seed=seed),
    "grid": lambda seed: grid_graph(6, 7),
    "ktree": lambda seed: k_tree(40, 3, seed=seed),
}


def _plan(kind, graph):
    if kind == "none":
        return None
    verts = sorted(graph.vertices())
    if kind == "crash":
        return FaultPlan(
            seed=7,
            crashes=((verts[2], 3), (verts[11], 5), (verts[19], 2)),
        )
    if kind == "drop":
        return FaultPlan(seed=7, drop=0.15)
    raise AssertionError(kind)


@pytest.fixture(autouse=True)
def _kernels_restored(monkeypatch):
    """Force threshold 1 (the graphs here are small) and always leave
    the process with kernels and batched delivery re-enabled."""
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "1")
    yield
    set_kernels_enabled(True)
    set_batch_delivery_enabled(True)


def run_once(graph, factory, seed, enabled, plan=None, rounds=60,
             batched=True):
    set_kernels_enabled(enabled)
    set_batch_delivery_enabled(batched)
    recorder = TraceRecorder("kernel-diff")
    sim = CongestSimulator(
        graph, factory, seed=seed, faults=plan, trace=recorder
    )
    result = sim.run(max_rounds=rounds)
    set_kernels_enabled(True)
    set_batch_delivery_enabled(True)
    return result, recorder, sim


def rng_states(sim):
    """Per-vertex RNG states, ``None`` where no draw ever happened."""
    return [
        None if ctx._rng is None else ctx._rng.getstate()
        for ctx in sim._engine._contexts
    ]


def assert_identical(pair_on, pair_off):
    res_on, rec_on, sim_on = pair_on
    res_off, rec_off, sim_off = pair_off
    assert res_on.outputs == res_off.outputs
    assert res_on.halted == res_off.halted
    assert res_on.crashed == res_off.crashed
    assert res_on.metrics.summary() == res_off.metrics.summary()
    assert (
        res_on.metrics.messages_per_round
        == res_off.metrics.messages_per_round
    )
    assert len(rec_on.rounds) == len(rec_off.rounds)
    for a, b in zip(rec_on.rounds, rec_off.rounds):
        assert a == b
    assert rng_states(sim_on) == rng_states(sim_off)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [3, 17, 92])
@pytest.mark.parametrize("plan_kind", ["none", "crash", "drop"])
@pytest.mark.parametrize("batched", [True, False])
def test_kernel_matches_scalar(algo, family, seed, plan_kind, batched):
    graph = GENERATORS[family](seed)
    factory, rounds = ALGORITHMS[algo]
    plan = _plan(plan_kind, graph)
    pair_on = run_once(
        graph, factory, seed, True, plan, rounds, batched=batched
    )
    pair_off = run_once(graph, factory, seed, False, plan, rounds)
    # Message-fault plans force a (silent) scalar fallback; lossless
    # and crash-only plans must actually engage the kernel, otherwise
    # this test would be vacuously comparing scalar against scalar.
    kernel = pair_on[2]._engine._kernel
    if plan_kind == "drop":
        assert kernel is None
    else:
        assert kernel is not None
        assert kernel._batched == batched
    assert pair_off[2]._engine._kernel is None
    assert_identical(pair_on, pair_off)


def test_delaunay_family_matches_scalar():
    """The matrix's random-planar column (skips without scipy)."""
    from tests.conftest import delaunay_or_skip

    graph = delaunay_or_skip(60, seed=5)
    for algo in sorted(ALGORITHMS):
        factory, rounds = ALGORITHMS[algo]
        pair_on = run_once(graph, factory, 13, True, None, rounds)
        pair_off = run_once(graph, factory, 13, False, None, rounds)
        assert pair_on[2]._engine._kernel is not None
        assert_identical(pair_on, pair_off)


def test_telemetry_identical_and_kernel_counters_stripped():
    """Kernels on vs off produce equal *comparable* telemetry, and the
    ``congest.kernel.*`` diagnostics exist only in the raw payload."""
    graph = GENERATORS["gnp"](3)
    factory, rounds = ALGORITHMS["luby"]
    captures = {}
    for enabled in (True, False):
        with telemetry_scope() as registry:
            run_once(graph, factory, 3, enabled, rounds=rounds)
            captures[enabled] = (
                registry.comparable_dict(),
                registry.to_dict(),
            )
    assert captures[True][0] == captures[False][0]
    raw_on = captures[True][1]["counters"]
    assert raw_on.get("congest.kernel.engaged") == 1
    assert raw_on.get("congest.kernel.rounds", 0) > 0
    assert raw_on.get("congest.delivery.batched", 0) > 0
    raw_off = captures[False][1]["counters"]
    assert raw_off.get("congest.kernel.fallback") == 1
    assert raw_off.get("congest.delivery.scalar", 0) > 0
    assert not any(
        name.startswith(("congest.kernel.", "congest.delivery."))
        for name in captures[True][0]["counters"]
    )
    # Both engagement styles record collect-phase spans identically.
    assert captures[True][0]["spans"]["congest.collect"] > 0


# ----------------------------------------------------------------------
# Activation rules
# ----------------------------------------------------------------------

def test_registry_maps_algorithms_to_kernels():
    assert kernel_class_for(LubyMIS) is LubyKernel
    assert kernel_class_for(MPXClustering) is MPXKernel
    assert kernel_class_for(ProposalMatching) is ProposalMatchingKernel
    assert kernel_class_for(dict) is None


def test_threshold_gates_engagement(monkeypatch):
    graph = grid_graph(5, 5)
    factory, _ = ALGORITHMS["luby"]
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "26")
    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is None
    monkeypatch.setenv("REPRO_KERNEL_THRESHOLD", "25")
    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is not None


def test_default_threshold_engages_at_64(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_THRESHOLD")
    graph = grid_graph(8, 8)
    factory, rounds = ALGORITHMS["luby"]
    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is not None
    small = grid_graph(7, 9)  # 63 vertices
    sim = CongestSimulator(small, factory, seed=1)
    assert sim._engine._kernel is None


def test_env_variable_disables_kernels(monkeypatch):
    monkeypatch.setenv("REPRO_NO_KERNELS", "1")
    # The module-level flag is read at import; the setter is the
    # process-level control and mirrors back into the environment.
    set_kernels_enabled(False)
    assert not kernels_enabled()
    graph = grid_graph(8, 8)
    sim = CongestSimulator(graph, ALGORITHMS["luby"][0], seed=1)
    assert sim._engine._kernel is None
    set_kernels_enabled(True)
    assert "REPRO_NO_KERNELS" not in __import__("os").environ
    sim = CongestSimulator(graph, ALGORITHMS["luby"][0], seed=1)
    assert sim._engine._kernel is not None


def test_missing_numpy_degrades_silently(monkeypatch):
    """With NumPy stubbed out the engine runs scalar, bit-identically.

    Batched delivery rides on the kernel layer, so the same stub also
    silences it: no send plans are ever built, and the engine finishes
    with no parked lazy plan."""
    graph = GENERATORS["gnp"](3)
    factory, rounds = ALGORITHMS["mpx"]
    baseline = run_once(graph, factory, 3, False, rounds=rounds)
    monkeypatch.setattr(rng_mod, "HAVE_NUMPY", False)
    pair = run_once(graph, factory, 3, True, rounds=rounds)
    assert pair[2]._engine._kernel is None
    assert pair[2]._engine._send_plan is None
    assert pair[2]._engine._lazy_plan is None
    monkeypatch.undo()
    assert_identical(pair, baseline)


def test_env_variable_disables_batch_delivery():
    """The batch-delivery escape hatch mirrors the kernels one: the
    setter flips the process flag and the env var together, and a
    kernel built while disabled emits through scalar outboxes."""
    import os

    graph = grid_graph(8, 8)
    set_batch_delivery_enabled(False)
    assert not batch_delivery_enabled()
    assert os.environ.get("REPRO_NO_BATCH_DELIVERY") == "1"
    sim = CongestSimulator(graph, ALGORITHMS["luby"][0], seed=1)
    assert sim._engine._kernel is not None
    assert not sim._engine._kernel._batched
    set_batch_delivery_enabled(True)
    assert "REPRO_NO_BATCH_DELIVERY" not in os.environ
    sim = CongestSimulator(graph, ALGORITHMS["luby"][0], seed=1)
    assert sim._engine._kernel._batched


def test_reference_engine_never_kernelizes():
    graph = grid_graph(8, 8)
    sim = CongestSimulator(
        graph, ALGORITHMS["luby"][0], seed=1, engine="reference"
    )
    assert getattr(sim._engine, "_kernel", None) is None


def test_mixed_population_falls_back():
    graph = grid_graph(8, 8)

    def factory(v):
        if v == 0:
            return MPXClustering(0.4, 12.0, 16)
        return LubyMIS(20)

    sim = CongestSimulator(graph, factory, seed=1)
    assert sim._engine._kernel is None


def test_non_uniform_parameters_fall_back():
    graph = grid_graph(8, 8)
    sim = CongestSimulator(
        graph, lambda v: LubyMIS(20 if v else 21), seed=1
    )
    assert sim._engine._kernel is None


# ----------------------------------------------------------------------
# Error-path parity: batched accounting raises exactly like scalar
# ----------------------------------------------------------------------

#: 8 * 12 + 2 = 98 bits — just over the 96-bit budget of a 42-vertex
#: grid (16 words of max(4, ceil(log2(44))) = 6 bits each).
_BIG = "x" * 12


class _Oversize(VertexAlgorithm):
    """Vertex 5 broadcasts an over-budget string in round 1."""

    def step(self, ctx, inbox):
        if ctx.round_number == 1:
            if ctx.vertex == 5:
                ctx.broadcast(_BIG)
            return
        ctx.halt(True)


@register_kernel(_Oversize)
class _OversizeKernel(KernelBase):
    emits_send_plans = True

    def _load_columns(self):
        pass

    def _write_columns(self):
        pass

    def _initialize_rows(self, rows):
        pass

    def _step_rows(self, rows, round_number, boxes):
        if round_number == 1:
            i = self.engine._index[5]
            self._emit_broadcast(rows[rows == i], shared=_BIG)
            return
        for i in rows.tolist():
            self._halt(i, True)


class _DoubleSend(VertexAlgorithm):
    """Vertex 5 sends two messages along one edge in round 1."""

    def step(self, ctx, inbox):
        if ctx.round_number == 1:
            if ctx.vertex == 5:
                target = ctx.neighbors[0]
                ctx.send(target, 1)
                ctx.send(target, 2)
            return
        ctx.halt(True)


@register_kernel(_DoubleSend)
class _DoubleSendKernel(KernelBase):
    emits_send_plans = True

    def _load_columns(self):
        pass

    def _write_columns(self):
        pass

    def _initialize_rows(self, rows):
        pass

    def _step_rows(self, rows, round_number, boxes):
        np = self.np
        if round_number == 1:
            i = self.engine._index[5]
            if (rows == i).any():
                sender = np.array([i], dtype=np.intp)
                target = np.array(
                    [int(self.nbr[self.indptr[i]])], dtype=np.int64
                )
                # Two single-edge unicast segments: flattened
                # segment-major order equals the scalar drain order.
                self._emit_send(sender, target, 1)
                self._emit_send(sender, target, 2)
            return
        for i in rows.tolist():
            self._halt(i, True)


def _capture_error(graph, factory, exc_type, *, kernels, batched,
                   strict=False):
    set_kernels_enabled(kernels)
    set_batch_delivery_enabled(batched)
    try:
        sim = CongestSimulator(graph, factory, seed=2, strict=strict)
        if kernels:
            assert sim._engine._kernel is not None
            assert sim._engine._kernel._batched == batched
        with pytest.raises(exc_type) as info:
            sim.run(max_rounds=6)
    finally:
        set_kernels_enabled(True)
        set_batch_delivery_enabled(True)
    return info.value, sim._engine._round


@pytest.mark.parametrize(
    "factory,exc_type,strict",
    [
        (lambda v: _Oversize(), MessageTooLargeError, False),
        (lambda v: _DoubleSend(), ProtocolError, True),
    ],
    ids=["oversized", "strict-capacity"],
)
def test_error_parity_batched_vs_scalar(factory, exc_type, strict):
    """Budget and strict-capacity violations raise the same exception
    type, text, and round number whether accounting runs columnar
    (batched send plan), through kernel outbox fallback, or fully
    scalar."""
    graph = grid_graph(6, 7)
    outcomes = [
        _capture_error(
            graph, factory, exc_type,
            kernels=kernels, batched=batched, strict=strict,
        )
        for kernels, batched in [(True, True), (True, False), (False, True)]
    ]
    texts = {str(err) for err, _round in outcomes}
    rounds = {r for _err, r in outcomes}
    assert len(texts) == 1, texts
    assert len(rounds) == 1, rounds
    assert all(type(err) is exc_type for err, _round in outcomes)


# ----------------------------------------------------------------------
# Checkpoint round-trips across kernel and batch-delivery modes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize(
    "capture_on,resume_on,capture_batched,resume_batched",
    [
        (True, False, True, True),
        (False, True, True, True),
        (True, True, True, True),
        (True, True, True, False),
        (True, True, False, True),
    ],
)
def test_checkpoint_crosses_kernel_modes(
    algo, capture_on, resume_on, capture_batched, resume_batched
):
    """A checkpoint captured in any mode resumes bit-identically in
    any other — the envelope stays engine-, kernel-, and
    batch-delivery-neutral.  Capturing with batching on exercises the
    materialize-before-capture path (a lazy plan may be parked at the
    checkpoint boundary)."""
    graph = GENERATORS["gnp"](9)
    factory, rounds = ALGORITHMS[algo]
    base, base_rec, _ = run_once(graph, factory, 21, True, rounds=rounds)

    set_kernels_enabled(capture_on)
    set_batch_delivery_enabled(capture_batched)
    checkpoints = []
    sim = CongestSimulator(graph, factory, seed=21)
    sim.run(
        max_rounds=rounds, checkpoint_every=2,
        on_checkpoint=checkpoints.append,
    )
    assert checkpoints
    set_kernels_enabled(resume_on)
    set_batch_delivery_enabled(resume_batched)
    resumed = resume_simulation(graph, factory, checkpoints[0])
    result = resumed.run(max_rounds=rounds)
    set_kernels_enabled(True)
    set_batch_delivery_enabled(True)

    assert result.outputs == base.outputs
    assert result.halted == base.halted
    assert (
        result.metrics.messages_per_round
        == base.metrics.messages_per_round
    )
    assert result.metrics.summary() == base.metrics.summary()


def test_checkpoint_fixture_workload_unaffected():
    """Unregistered algorithms (the checkpoint fixture's RNG walker)
    never see a kernel and round-trip exactly as before."""
    from tests._checkpoint_fixture import FixtureWalker

    graph = grid_graph(6, 6)
    factory = FixtureWalker
    base = CongestSimulator(graph, factory, seed=4).run(max_rounds=45)
    checkpoints = []
    sim = CongestSimulator(graph, factory, seed=4)
    assert sim._engine._kernel is None
    sim.run(
        max_rounds=45, checkpoint_every=7,
        on_checkpoint=checkpoints.append,
    )
    resumed = resume_simulation(graph, factory, checkpoints[0])
    result = resumed.run(max_rounds=45)
    assert result.outputs == base.outputs
