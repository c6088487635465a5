"""The reference CONGEST engine: simple, dict-based, obviously correct.

This is the original simulator core, kept as the slow path that the
fast engine (:mod:`repro.congest.engine`) is differentially tested
against: ``tests/test_engine_equivalence.py`` runs both engines over
seeded random graphs and algorithm families and asserts identical
outputs, metrics, and traces.  Prefer clarity over speed here — every
round it re-derives the due set by scanning all wakeups and drains the
outboxes of every vertex.

Shared with the fast engine (so the two stay comparable):

* per-vertex state construction (canonical vertex order, derived RNG
  streams) via :func:`repro.congest.engine.build_vertex_state`;
* the accounting policy — traffic is recorded against the round it is
  delivered into, so ``metrics.rounds`` equals rounds executed.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import CheckpointError, MessageTooLargeError, ProtocolError
from ..graph import Graph, canonical_vertex_order
from .algorithm import VertexAlgorithm, VertexContext
from .checkpoint import (
    PICKLE_PROTOCOL,
    SimulationCheckpoint,
    graph_fingerprint,
    verify_restore_target,
)
from .engine import _NO_TRAFFIC, build_vertex_state
from .faults import (
    CORRUPT,
    DROP,
    DUPLICATE,
    NO_FAULTS,
    FaultInjector,
    pad_fault_counts,
)
from .message import MessageBudget, message_bits
from .metrics import CongestMetrics
from .trace import RoundTrace, TraceRecorder, detail_event_sort_key
from ..obs import registry as _telemetry


class ReferenceEngine:
    """Dict-based scheduler; see the module docstring."""

    name = "reference"

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: Callable[[Any], VertexAlgorithm],
        budget: Optional[MessageBudget] = None,
        strict: bool = False,
        capacity: int = 1,
        seed=None,
        trace: Optional[TraceRecorder] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.graph = graph
        self.budget = budget if budget is not None else MessageBudget(graph.n)
        self.strict = strict
        self.capacity = capacity
        self.metrics = CongestMetrics()
        self.trace = trace
        self.faults = faults
        # Kept for crash-recovery: a rejoining vertex with no local
        # snapshot re-initializes through the same factory.
        self._factory = algorithm_factory

        order, contexts, algorithms = build_vertex_state(
            graph, algorithm_factory, seed
        )
        self._order = order
        # Canonical rank, shared with the fast engine's integer ids, so
        # delayed-delivery ordering is identical across engines.
        self._rank: Dict[Any, int] = {v: i for i, v in enumerate(order)}
        self._contexts: Dict[Any, VertexContext] = dict(zip(order, contexts))
        self._algorithms: Dict[Any, VertexAlgorithm] = dict(
            zip(order, algorithms)
        )
        self._pending: Dict[Any, Dict[Any, List[Any]]] = {
            v: {} for v in self._order
        }
        self._has_pending: Set[Any] = set()
        self._round = 0
        # Vertices that must step next round regardless of messages.
        self._runnable: Set[Any] = set(self._order)
        # Scheduled wakeups for idle vertices: vertex -> round number.
        self._wakeups: Dict[Any, int] = {}
        # Telemetry is sampled once at construction, exactly as the
        # fast engine does, so both publish into the same registry.
        self._registry = (
            _telemetry.current_registry() if _telemetry.enabled() else None
        )
        self._want_bits_hist = trace is not None or self._registry is not None
        # Per-message provenance events (trace schema 5), opt-in via
        # TraceRecorder(detail=True); mirrors the fast engine.
        self._want_detail = trace is not None and getattr(
            trace, "detail", False
        )
        self._inflight_events: List[Dict[str, Any]] = []
        # Traffic awaiting delivery at the next executed round.
        self._inflight: Tuple[Dict, int, int, Dict, Tuple[int, ...]] = (
            _NO_TRAFFIC
        )
        # Payloads the fault channel withheld, keyed by release round
        # (mirrors the fast engine; vertex-keyed for checkpoints).
        self._delay_queue: Dict[int, List[Tuple[int, Any, Any, Any]]] = {}
        # Crash schedule, or None when the plan has no crashes.
        if faults is not None and faults.plan.crashes:
            self._crash_rounds: Optional[Dict[Any, int]] = {
                v: faults.crash_round(v)
                for v in order
                if faults.crash_round(v) is not None
            }
            # Crash-recovery schedule: (rejoin round, vertex), sorted by
            # round with canonical order breaking ties (stable sort over
            # the canonical vertex order), exactly as the fast engine.
            rejoins = [
                (faults.rejoin_round(v), v)
                for v in order
                if faults.rejoin_round(v) is not None
            ]
            rejoins.sort(key=lambda entry: entry[0])
            self._rejoin_queue: List[Tuple[int, Any]] = rejoins
            self._snapshot_interval = faults.checkpoint_interval
        else:
            self._crash_rounds = None
            self._rejoin_queue = []
            self._snapshot_interval = None
        self._crashed: Set[Any] = set()
        # Local crash-recovery snapshots: only vertices still scheduled
        # to rejoin are worth snapshotting.
        self._snapshot_targets: Set[Any] = {v for _, v in self._rejoin_queue}
        self._snapshots: Dict[Any, bytes] = {}
        self._snapshot_rounds: Dict[Any, int] = {}
        # Flipped by run() after the initialization pass; a restored
        # post-init checkpoint carries True, so run() then skips
        # initialization and continues mid-simulation.
        self._initialized = False

    # ------------------------------------------------------------------
    @property
    def rounds_executed(self) -> int:
        """Final value of the synchronous round counter."""
        return self._round

    def run(
        self,
        max_rounds: int = 10_000,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[..., None]] = None,
    ):
        """Execute until all vertices halt or ``max_rounds`` elapse.

        ``checkpoint_every`` / ``on_checkpoint`` mirror the fast
        engine: a checkpoint is captured after every
        ``checkpoint_every``-th executed round and passed to the
        callback; a restored engine continues mid-simulation.
        """
        from .network import SimulationResult

        crash_rounds = self._crash_rounds
        if not self._initialized:
            self._initialized = True
            init_crashed = 0
            for v in self._order:
                if crash_rounds is not None:
                    cr = crash_rounds.get(v)
                    if cr is not None and cr <= 0:
                        # Fail-stopped before round 0: never initializes.
                        self._contexts[v]._halted = True
                        self._crashed.add(v)
                        init_crashed += 1
                        continue
                self._algorithms[v].initialize(self._contexts[v])
            if init_crashed:
                self.metrics.record_crashed(init_crashed)
            if self._registry is not None:
                with self._registry.span("congest.collect"):
                    self._collect()
            else:
                self._collect()
            self._runnable = {
                v for v in self._order if not self._contexts[v].halted
            }

        while self._round < max_rounds and (
            not self._all_halted() or self._rejoin_queue
        ):
            next_round = self._round + 1
            if self._delay_queue:
                self._deliver_delayed(next_round)
            due = self._due_vertices(next_round)
            skipped = 0
            if not due:
                # Fast-forward to the earliest scheduled wakeup, rejoin,
                # or delayed-message release (all are events exactly
                # like a wakeup).
                future = [
                    w
                    for v, w in self._wakeups.items()
                    if not self._contexts[v].halted
                ]
                future.extend(r for r, _ in self._rejoin_queue)
                if self._delay_queue:
                    future.append(min(self._delay_queue))
                if not future:
                    break  # nothing will ever happen again
                target = min(future)
                if target > max_rounds:
                    self._record_skipped(max_rounds - self._round)
                    self._round = max_rounds
                    break
                skipped = target - next_round
                self._record_skipped(skipped)
                next_round = target
                if self._delay_queue:
                    self._deliver_delayed(next_round)
                due = self._due_vertices(next_round)
            self._round = next_round
            revived = (
                self._process_rejoins(next_round)
                if self._rejoin_queue
                else ()
            )
            per_edge, messages, bits, bits_hist, fcounts = self._inflight
            self._inflight = _NO_TRAFFIC
            if self._want_detail:
                # Snapshot before _collect below refills the buffer
                # with the next round's events (mirrors the fast
                # engine exactly).
                detail_events = self._inflight_events
                self._inflight_events = []
                detail_events.sort(key=detail_event_sort_key)
            else:
                detail_events = None
            if self.faults is None:
                self.metrics.record_round(per_edge, messages, bits)
            else:
                self.metrics.record_round(per_edge, messages, bits, fcounts)
            live_before = sum(
                1 for ctx in self._contexts.values() if not ctx.halted
            )
            stepped: List[Any] = []
            crashed_now = 0
            if self._snapshot_interval is not None and self._snapshot_targets:
                self._catch_up_local_snapshots(due, next_round)
            for v in due:
                ctx = self._contexts[v]
                if ctx.halted:
                    continue
                if crash_rounds is not None:
                    cr = crash_rounds.get(v)
                    if cr is not None and next_round >= cr:
                        # Fail-stop: the vertex never steps at or after
                        # its crash round and its mail dies with it.
                        ctx._halted = True
                        ctx._output = None
                        self._crashed.add(v)
                        crashed_now += 1
                        self._pending[v] = {}
                        self._has_pending.discard(v)
                        continue
                ctx.round_number = self._round
                inbox = self._pending[v]
                self._pending[v] = {}
                self._has_pending.discard(v)
                self._algorithms[v].step(ctx, inbox)
                stepped.append(v)
            # _collect scans every vertex, so revived outboxes drain
            # here without the fast engine's explicit active-set union.
            if self._registry is not None:
                with self._registry.span("congest.collect"):
                    self._collect()
            else:
                self._collect()
            self._reschedule(stepped)
            if self._snapshot_interval is not None and self._snapshot_targets:
                self._take_local_snapshots(stepped, next_round)
            if crashed_now:
                self.metrics.record_crashed(crashed_now)
            registry = self._registry
            if registry is not None:
                # Mirrors the fast engine exactly; the differential
                # harness pins stepped counts and message sizes equal,
                # so the two engines publish identical telemetry.
                registry.observe("congest.active_vertices", len(stepped))
                if bits_hist:
                    size_hist = registry.histogram("congest.message_bits")
                    for size, times in bits_hist.items():
                        size_hist.observe(size, times)
            if self.trace is not None:
                live_after = sum(
                    1 for ctx in self._contexts.values() if not ctx.halted
                )
                self.trace.record_round(
                    round_number=self._round,
                    per_edge_counts=per_edge,
                    messages=messages,
                    bits=bits,
                    stepped=len(stepped),
                    idle=live_before - len(stepped) - crashed_now,
                    halted=len(self._order) - live_after,
                    skipped_before=skipped,
                    dropped=fcounts[0],
                    duplicated=fcounts[1],
                    corrupted=fcounts[2],
                    crashed=crashed_now,
                    rejoined=len(revived),
                    delayed=fcounts[3],
                    topo_lost=fcounts[4],
                    partitioned=fcounts[5],
                    message_bits_histogram=bits_hist,
                    events=detail_events,
                )
            if (
                on_checkpoint is not None
                and checkpoint_every is not None
                and next_round % checkpoint_every == 0
            ):
                on_checkpoint(self.capture_checkpoint())

        if self._registry is not None:
            self.metrics.publish_telemetry(self._registry)
        outputs = {v: self._contexts[v].output for v in self._order}
        return SimulationResult(
            outputs=outputs,
            metrics=self.metrics,
            halted=self._all_halted(),
            crashed=frozenset(self._crashed),
        )

    def _record_skipped(self, rounds: int) -> None:
        self.metrics.record_skipped(rounds)
        if self._registry is not None and rounds > 0:
            # Telemetry only (mirrors the fast engine).
            self._registry.count("congest.rounds_skipped", rounds)

    # -- crash recovery -------------------------------------------------
    def _process_rejoins(self, round_number: int) -> List[Any]:
        """Revive crashed vertices whose scheduled rejoin round arrived.

        Mirrors the fast engine exactly: restore from the most recent
        local snapshot, or re-initialize from scratch with the original
        RNG seed; mail queued while dead is lost; rejoins of vertices
        that halted normally before crashing are dropped.
        """
        queue = self._rejoin_queue
        revived: List[Any] = []
        while queue and queue[0][0] <= round_number:
            _, v = queue.pop(0)
            self._snapshot_targets.discard(v)
            if v not in self._crashed:
                continue
            self._crashed.discard(v)
            if self._crash_rounds is not None:
                # The crash has been consumed; without this the vertex
                # would fail-stop again on its next step.
                self._crash_rounds.pop(v, None)
            snapshot = self._snapshots.pop(v, None)
            self._snapshot_rounds.pop(v, None)
            if snapshot is not None:
                algorithm, ctx = pickle.loads(snapshot)
                ctx.round_number = round_number
            else:
                old = self._contexts[v]
                ctx = VertexContext(
                    vertex=old.vertex,
                    neighbors=old.neighbors,
                    edge_weights=dict(old.edge_weights),
                    n=old.n,
                    rng_seed=old._rng_seed,
                )
                ctx.round_number = round_number
                algorithm = self._factory(old.vertex)
            self._contexts[v] = ctx
            self._algorithms[v] = algorithm
            if snapshot is None:
                algorithm.initialize(ctx)
            self._pending[v] = {}
            self._has_pending.discard(v)
            self._wakeups.pop(v, None)
            if not ctx.halted:
                self._runnable.add(v)
            revived.append(v)
        if revived:
            self.metrics.record_rejoined(len(revived))
        return revived

    def _take_local_snapshots(self, stepped: List[Any],
                              round_number: int) -> None:
        """Snapshot rejoin-scheduled vertices every ``checkpoint_interval``
        rounds of their round clock; runs after collection so snapshots
        never contain queued outbox messages (mirrors the fast engine).
        """
        interval = self._snapshot_interval
        targets = self._snapshot_targets
        last_rounds = self._snapshot_rounds
        for v in stepped:
            if v in targets and not self._contexts[v].halted:
                last = last_rounds.get(v)
                if last is None or round_number - last >= interval:
                    self._snapshots[v] = pickle.dumps(
                        (self._algorithms[v], self._contexts[v]),
                        protocol=PICKLE_PROTOCOL,
                    )
                    last_rounds[v] = round_number

    def _catch_up_local_snapshots(self, due: List[Any],
                                  round_number: int) -> None:
        """Before stepping (and crash filtering), snapshot a due target
        at the latest ``last + k * interval`` round its idle stretch
        skipped; its state has been frozen since its last step
        (mirrors the fast engine).
        """
        interval = self._snapshot_interval
        targets = self._snapshot_targets
        last_rounds = self._snapshot_rounds
        for v in due:
            if v in targets:
                last = last_rounds.get(v)
                if last is not None and round_number - last > interval:
                    self._snapshots[v] = pickle.dumps(
                        (self._algorithms[v], self._contexts[v]),
                        protocol=PICKLE_PROTOCOL,
                    )
                    last_rounds[v] = (
                        round_number - 1 - (round_number - 1 - last) % interval
                    )

    # -- checkpoint / restore -------------------------------------------
    def capture_checkpoint(self) -> SimulationCheckpoint:
        """Freeze the simulation at the current round boundary.

        Produces the same engine-neutral, vertex-keyed state layout as
        :meth:`repro.congest.engine.FastEngine.capture_checkpoint`
        (inboxes / wakeups / runnable flags of halted vertices are
        normalized away), so checkpoints resume on either engine.
        """
        contexts = self._contexts
        per_edge, messages, bits, bits_hist, fcounts = self._inflight
        state = {
            "contexts": dict(contexts),
            "algorithms": dict(self._algorithms),
            "pending": {
                v: box
                for v, box in self._pending.items()
                if box and not contexts[v].halted
            },
            "runnable": {
                v for v in self._runnable if not contexts[v].halted
            },
            "wakeups": {
                v: w
                for v, w in self._wakeups.items()
                if not contexts[v].halted
            },
            "inflight": {
                "per_edge": [
                    (u, w, count) for (u, w), count in per_edge.items()
                ],
                "messages": messages,
                "bits": bits,
                "bits_hist": dict(bits_hist),
                "fcounts": tuple(fcounts),
            },
            # Withheld payloads still in flight, flattened in release
            # order (entries are already vertex-keyed in both engines;
            # detail-mode entries carry a trailing sequence number).
            "delayed": [
                (release,) + tuple(entry)
                for release in sorted(self._delay_queue)
                for entry in self._delay_queue[release]
            ],
            # Detail events buffered for the next executed round
            # (empty unless the trace recorder asked for detail).
            "inflight_events": [dict(e) for e in self._inflight_events],
            "crashed": set(self._crashed),
            "crash_rounds": (
                None
                if self._crash_rounds is None
                else dict(self._crash_rounds)
            ),
            "rejoin_queue": list(self._rejoin_queue),
            "snapshots": dict(self._snapshots),
            "snapshot_rounds": dict(self._snapshot_rounds),
            "initialized": self._initialized,
        }
        if self._registry is not None:
            self._registry.count("congest.checkpoints_captured")
        return SimulationCheckpoint(
            round=self._round,
            n=len(self._order),
            engine=self.name,
            graph=graph_fingerprint(self.graph),
            strict=self.strict,
            capacity=self.capacity,
            budget_n=self.budget.n,
            budget_words=self.budget.words,
            fault_plan=(
                self.faults.plan.to_dict() if self.faults is not None else None
            ),
            metrics=self.metrics.to_dict(include_per_round=True),
            state=pickle.dumps(state, protocol=PICKLE_PROTOCOL),
            trace_rounds=(
                [r.to_dict() for r in self.trace.rounds]
                if self.trace is not None
                else None
            ),
        )

    def restore_checkpoint(self, checkpoint: SimulationCheckpoint) -> None:
        """Replace this engine's state with a captured checkpoint.

        Accepts checkpoints captured by either engine; mismatched
        graphs or configurations raise
        :class:`~repro.errors.CheckpointError`.
        """
        verify_restore_target(self, checkpoint, len(self._order))
        try:
            state = pickle.loads(checkpoint.state)
        except Exception as exc:
            raise CheckpointError(
                f"cannot unpickle checkpoint state: {exc}"
            ) from exc
        try:
            contexts = state["contexts"]
            algorithms = state["algorithms"]
            self._contexts = {v: contexts[v] for v in self._order}
            self._algorithms = {v: algorithms[v] for v in self._order}
            self._pending = {v: {} for v in self._order}
            self._has_pending = set()
            for v, box in state["pending"].items():
                self._pending[v] = box
                self._has_pending.add(v)
            self._runnable = set(state["runnable"])
            self._wakeups = dict(state["wakeups"])
            inflight = state["inflight"]
            self._inflight = (
                {
                    (u, w): count
                    for u, w, count in inflight["per_edge"]
                },
                inflight["messages"],
                inflight["bits"],
                dict(inflight["bits_hist"]),
                pad_fault_counts(inflight["fcounts"]),
            )
            self._delay_queue = {}
            for entry in state.get("delayed", ()):
                # entry = (release, send_round, sender, receiver,
                # payload[, seq]); older checkpoints lack the trailing
                # detail-mode sequence number.
                self._delay_queue.setdefault(entry[0], []).append(
                    tuple(entry[1:])
                )
            self._inflight_events = [
                dict(e) for e in state.get("inflight_events", ())
            ]
            self._crashed = set(state["crashed"])
            crash_rounds = state["crash_rounds"]
            self._crash_rounds = (
                None if crash_rounds is None else dict(crash_rounds)
            )
            self._rejoin_queue = [
                (r, v) for r, v in state["rejoin_queue"]
            ]
            self._snapshot_targets = {v for _, v in self._rejoin_queue}
            self._snapshots = dict(state["snapshots"])
            self._snapshot_rounds = dict(state["snapshot_rounds"])
        except KeyError as exc:
            raise CheckpointError(
                f"checkpoint state is missing {exc}"
            ) from exc
        self._round = checkpoint.round
        self.metrics = CongestMetrics.from_dict(checkpoint.metrics)
        if self.trace is not None and checkpoint.trace_rounds is not None:
            self.trace.rounds = [
                RoundTrace.from_dict(d) for d in checkpoint.trace_rounds
            ]
        # A pre-initialization checkpoint (captured before run()) leaves
        # this False, so the resumed run still initializes normally.
        self._initialized = bool(state.get("initialized", True))
        if self._registry is not None:
            self._registry.count("congest.checkpoints_restored")

    # ------------------------------------------------------------------
    def _due_vertices(self, round_number: int) -> List[Any]:
        due = set(self._runnable) | self._has_pending
        for v, wake in self._wakeups.items():
            if wake <= round_number:
                due.add(v)
        return canonical_vertex_order(
            v for v in due if not self._contexts[v].halted
        )

    def _reschedule(self, stepped: List[Any]) -> None:
        for v in stepped:
            ctx = self._contexts[v]
            self._runnable.discard(v)
            self._wakeups.pop(v, None)
            if ctx.halted:
                continue
            algo = self._algorithms[v]
            if algo.is_idle(ctx):
                wake = algo.next_wakeup(ctx)
                if self._crash_rounds is not None:
                    # Clamp the wakeup so a scheduled crash is noticed
                    # at its exact round even while the vertex is idle.
                    cr = self._crash_rounds.get(v)
                    if (
                        cr is not None
                        and cr > self._round
                        and (wake is None or cr < wake)
                    ):
                        wake = cr
                if wake is not None and wake > self._round:
                    self._wakeups[v] = wake
            else:
                self._runnable.add(v)

    def _all_halted(self) -> bool:
        return all(ctx.halted for ctx in self._contexts.values())

    def _collect(self) -> None:
        """Move all outboxes into the in-flight buffer, with accounting."""
        per_edge: Dict = {}
        messages = 0
        bits = 0
        max_bits = 0
        want_hist = self._want_bits_hist
        bits_hist: Dict[int, int] = {}
        # Per-message attribute lookups hoisted into locals, mirroring
        # the fast engine's prologue.
        budget_bits = self.budget.bits
        strict = self.strict
        capacity = self.capacity
        contexts = self._contexts
        pending = self._pending
        has_pending_add = self._has_pending.add
        per_edge_get = per_edge.get
        sizeof = message_bits
        injector = self.faults
        send_round = self._round
        dropped = duplicated = corrupted = 0
        delayed = topo_lost = partitioned = 0
        want_detail = self._want_detail
        if want_detail:
            events_append = self._inflight_events.append
        if injector is not None:
            inj_topo = injector.has_topology
            inj_part = injector.has_partitions
            inj_delay = injector.has_delay
            delay_queue = self._delay_queue
        for v in self._order:
            ctx = contexts[v]
            outbox = ctx._drain_outbox()
            for neighbor, payload in outbox:
                size = sizeof(payload)
                if size > budget_bits:
                    raise MessageTooLargeError(
                        size,
                        budget_bits,
                        detail=f"from {v!r} to {neighbor!r}",
                    )
                if size > max_bits:
                    max_bits = size
                edge = (v, neighbor)
                count = per_edge_get(edge, 0) + 1
                per_edge[edge] = count
                if strict and count > capacity:
                    raise ProtocolError(
                        f"edge {edge!r} carried {count} messages in one "
                        f"round (capacity {capacity})"
                    )
                messages += 1
                bits += size
                if want_hist:
                    # Keyed on what the sender was charged (before the
                    # fault channel), matching the fast engine.
                    bits_hist[size] = bits_hist.get(size, 0) + 1
                copies = 1
                outcome = "deliver"
                if injector is not None:
                    # The sender has paid; what follows is the channel.
                    # Fault decisions key on the per-edge sequence
                    # number ``count - 1``, identical in both engines.
                    if inj_topo and not injector.topology_live(
                        v, neighbor, send_round
                    ):
                        topo_lost += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "topo_lost",
                            })
                        continue
                    if inj_part and injector.partitioned(
                        v, neighbor, send_round
                    ):
                        partitioned += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "partitioned",
                            })
                        continue
                    if injector.link_down(v, neighbor, send_round):
                        dropped += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "drop",
                            })
                        continue
                    action = injector.classify(
                        send_round, v, neighbor, count - 1
                    )
                    if action == DROP:
                        dropped += 1
                        if want_detail:
                            events_append({
                                "s": repr(v), "r": repr(neighbor),
                                "q": count - 1, "b": size, "o": "drop",
                            })
                        continue
                    if action == DUPLICATE:
                        duplicated += 1
                        copies = 2
                        outcome = "duplicate"
                    elif action == CORRUPT:
                        corrupted += 1
                        outcome = "corrupt"
                        payload = injector.corrupted_payload(
                            send_round, v, neighbor, count - 1
                        )
                    if inj_delay:
                        extra = injector.delay_rounds(
                            send_round, v, neighbor, count - 1
                        )
                        if extra:
                            # Charged now, handed over later: the
                            # payload (every copy of it) waits in the
                            # delay queue for its release round.
                            delayed += 1
                            release = delay_queue.setdefault(
                                send_round + 1 + extra, []
                            )
                            if want_detail:
                                # The per-edge sequence number rides
                                # along so the release event can be
                                # joined back to this transmission.
                                entry = (
                                    send_round, v, neighbor, payload,
                                    count - 1,
                                )
                                events_append({
                                    "s": repr(v), "r": repr(neighbor),
                                    "q": count - 1, "b": size, "o": "delay",
                                })
                            else:
                                entry = (send_round, v, neighbor, payload)
                            release.append(entry)
                            if copies == 2:
                                release.append(entry)
                            continue
                if want_detail:
                    events_append({
                        "s": repr(v), "r": repr(neighbor),
                        "q": count - 1, "b": size, "o": outcome,
                    })
                inbox = pending[neighbor].setdefault(v, [])
                inbox.append(payload)
                if copies == 2:
                    inbox.append(payload)
                has_pending_add(neighbor)
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        if messages and self._registry is not None:
            self._registry.count("congest.delivery.scalar")
        self._inflight = (
            per_edge,
            messages,
            bits,
            bits_hist,
            (dropped, duplicated, corrupted, delayed, topo_lost, partitioned)
            if injector is not None
            else NO_FAULTS,
        )

    def _deliver_delayed(self, round_number: int) -> None:
        """Release withheld payloads whose delivery round has arrived.

        Entries are ordered by (send round, sender rank, receiver rank)
        — a pure function of the plan and the canonical vertex order —
        exactly as the fast engine orders them, so both engines append
        released payloads to the pending inboxes identically.
        """
        queue = self._delay_queue
        ready = [r for r in queue if r <= round_number]
        if not ready:
            return
        entries: List[Tuple] = []
        for release in sorted(ready):
            entries.extend(queue.pop(release))
        rank = self._rank
        entries.sort(key=lambda e: (e[0], rank[e[1]], rank[e[2]]))
        pending = self._pending
        has_pending_add = self._has_pending.add
        want_detail = self._want_detail
        for entry in entries:
            # Detail-mode entries carry a fifth element: the original
            # per-edge sequence number (see _collect).
            send_round, sender, receiver, payload = entry[:4]
            if want_detail:
                event = {
                    "s": repr(sender), "r": repr(receiver),
                    "o": "release", "sr": send_round,
                }
                if len(entry) > 4:
                    event["q"] = entry[4]
                self._inflight_events.append(event)
            pending[receiver].setdefault(sender, []).append(payload)
            has_pending_add(receiver)
