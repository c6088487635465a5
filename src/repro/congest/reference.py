"""The reference CONGEST engine: simple, dict-based, obviously correct.

This is the original simulator core, kept as the slow path that the
fast engine (:mod:`repro.congest.engine`) is differentially tested
against: ``tests/test_engine_equivalence.py`` runs both engines over
seeded random graphs and algorithm families and asserts identical
outputs, metrics, and traces.  Prefer clarity over speed here — every
round it re-derives the due set by scanning all wakeups and drains the
outboxes of every vertex.

Its own, and independent of the fast engine: the due set, stepping,
collection, rescheduling and the order of the round loop.

Shared with the fast engine through
:class:`repro.congest.bookkeeping.EngineBookkeeping`, which this engine
drives with vertex labels as its keys:

* per-vertex state construction (canonical vertex order, derived RNG
  streams) and the accounting policy — traffic is recorded against the
  round it is delivered into, so ``metrics.rounds`` equals rounds
  executed;
* the crash and rejoin schedule, rejoin revival and local
  crash-recovery snapshots;
* the ordered release of delayed payloads;
* checkpoint capture and restore.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from ..errors import MessageTooLargeError, ProtocolError
from ..graph import Graph, canonical_vertex_order
from .algorithm import VertexAlgorithm
from .bookkeeping import _NO_TRAFFIC, EngineBookkeeping
from .faults import CORRUPT, DROP, DUPLICATE, NO_FAULTS, FaultInjector
from .message import MessageBudget, message_bits
from .trace import TraceRecorder, detail_event_sort_key


class ReferenceEngine(EngineBookkeeping):
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
        super().__init__(
            graph, algorithm_factory, budget, strict, capacity, seed, trace,
            faults,
        )
        self._keys = self._verts
        self._pending: Dict[Any, Dict[Any, List[Any]]] = {
            v: {} for v in self._verts
        }
        self._has_pending: Set[Any] = set()
        # Vertices that must step next round regardless of messages.
        self._runnable: Set[Any] = set(self._verts)
        # Scheduled wakeups for idle vertices: vertex -> round number.
        self._wakeups: Dict[Any, int] = {}

    # -- key mapping and scheduler hooks (see EngineBookkeeping) ---------
    @staticmethod
    def _vertex(v: Any) -> Any:
        return v

    _key = _edge_vertices = _vertex

    def _by_key(self, values: List[Any]) -> Dict[Any, Any]:
        return dict(zip(self._verts, values))

    def _edge_key(self, sender: Any, receiver: Any) -> Any:
        return (sender, receiver)

    def _enqueue(self, v: Any, sender: Any, payload: Any) -> None:
        self._pending[v].setdefault(sender, []).append(payload)
        self._has_pending.add(v)

    def _on_revive(self, v: Any) -> None:
        self._pending[v] = {}
        self._has_pending.discard(v)
        self._wakeups.pop(v, None)
        if not self._contexts[v].halted:
            self._runnable.add(v)

    def _wakeup_items(self):
        return self._wakeups.items()

    def _restore_schedule(self, pending, runnable, wakeups) -> None:
        self._pending = {v: pending.get(v, {}) for v in self._verts}
        self._has_pending = set(pending)
        self._runnable = runnable
        self._wakeups = wakeups

    # ------------------------------------------------------------------
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
            for v in self._initial_cohort():
                self._algorithms[v].initialize(self._contexts[v])
            if self._registry is not None:
                with self._registry.span("congest.collect"):
                    self._collect()
            else:
                self._collect()
            self._runnable = {
                v for v in self._verts if not self._contexts[v].halted
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
                    halted=len(self._verts) - live_after,
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
        outputs = {v: self._contexts[v].output for v in self._verts}
        return SimulationResult(
            outputs=outputs,
            metrics=self.metrics,
            halted=self._all_halted(),
            crashed=frozenset(self._crashed),
        )

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
        for v in self._verts:
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
