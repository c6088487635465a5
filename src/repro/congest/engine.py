"""The fast-path CONGEST engine.

Semantically identical to :class:`repro.congest.reference.ReferenceEngine`
(the differential harness in ``tests/test_engine_equivalence.py`` pins
outputs and metrics bit-for-bit), but built for speed:

* **Interned vertex IDs** — vertices are sorted once into canonical
  order at construction and addressed by dense integers from then on.
  Contexts, algorithms, inboxes, and wakeups live in flat lists indexed
  by those integers; the per-round ``repr``-keyed sorts of the original
  simulator are gone.
* **Wakeup min-heap** — scheduled wakeups sit in a ``(round, vertex)``
  heap with lazy invalidation instead of a dict that was scanned in
  full every round.
* **Active-set message collection** — only vertices that stepped this
  round can have queued messages, so delivery drains exactly those
  outboxes instead of scanning all ``n`` vertices per round.

The round loop — due set, stepping, collection, rescheduling — is this
engine's own.  Construction, crash recovery, delayed delivery and
checkpoints are the engine-neutral bookkeeping of
:mod:`repro.congest.bookkeeping`, shared with the reference engine;
this engine maps its integer ids to vertices for it.  Traffic is
recorded against the round it is delivered into, so ``metrics.rounds``
equals the number of rounds executed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import MessageTooLargeError, ProtocolError
from ..graph import Graph
from .algorithm import VertexAlgorithm
from .bookkeeping import _NO_TRAFFIC, EngineBookkeeping
from .checkpoint import SimulationCheckpoint
from .faults import CORRUPT, DROP, DUPLICATE, NO_FAULTS, FaultInjector
from .message import (
    _BOOL_BITS,
    _FLOAT_TOTAL,
    _INT_EXTRA,
    FIELD_OVERHEAD_BITS,
    MessageBudget,
    message_bits,
)
from .trace import TraceRecorder, detail_event_sort_key

#: Private sentinel no user payload can be identical to.
_UNSET = object()


class FastEngine(EngineBookkeeping):
    """Integer-indexed scheduler; see the module docstring."""

    name = "fast"

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
        n = self._n
        self._keys = range(n)
        # Algorithms that keep the base-class scheduling hints are never
        # idle; skip the virtual dispatch for them on the hot path.
        self._default_hints = [
            type(a).is_idle is VertexAlgorithm.is_idle
            for a in self._algorithms
        ]
        # Next-round inboxes: vertex id -> {sender vertex: [payloads]}.
        self._pending: List[Optional[Dict[Any, List[Any]]]] = [None] * n
        self._pending_ids: Set[int] = set()
        # Vertices that must step next round regardless of messages.
        self._runnable: Set[int] = set(range(n))
        # Wakeup heap with lazy invalidation: an entry (w, i) is live
        # iff self._wake_round[i] == w.
        self._heap: List[Tuple[int, int]] = []
        self._wake_round: List[Optional[int]] = [None] * n
        self._live = n
        # Batched delivery (see repro.congest.kernels.SendPlan): a
        # kernel that emits send plans parks the current round's plan
        # in _send_plan for _collect to charge vectorized; the charged
        # plan then waits in _lazy_plan, standing in for the pending
        # inbox dictionaries until the next round consumes it — or
        # until checkpoint capture / crash filtering materializes it.
        self._send_plan = None
        self._lazy_plan = None
        # Columnar round kernel, when the algorithm class registered
        # one and this run qualifies (see repro.congest.kernels);
        # None means the ordinary scalar step loop.
        from .kernels import maybe_build_kernel

        self._kernel = maybe_build_kernel(self)

    # -- key mapping and scheduler hooks (see EngineBookkeeping) ---------
    def _vertex(self, i: int) -> Any:
        return self._verts[i]

    def _key(self, v: Any) -> int:
        return self._index[v]

    def _by_key(self, values: List[Any]) -> List[Any]:
        return values

    def _edge_vertices(self, edge: int) -> Tuple[Any, Any]:
        return self._verts[edge // self._n], self._verts[edge % self._n]

    def _edge_key(self, sender: Any, receiver: Any) -> int:
        return self._index[sender] * self._n + self._index[receiver]

    def _enqueue(self, i: int, sender: Any, payload: Any) -> None:
        box = self._pending[i]
        if box is None:
            self._pending[i] = {sender: [payload]}
            self._pending_ids.add(i)
        else:
            box.setdefault(sender, []).append(payload)

    def _on_revive(self, i: int) -> None:
        self._default_hints[i] = (
            type(self._algorithms[i]).is_idle is VertexAlgorithm.is_idle
        )
        if self._pending[i] is not None:
            self._pending[i] = None
            self._pending_ids.discard(i)
        self._wake_round[i] = None
        if not self._contexts[i]._halted:
            self._runnable.add(i)
            self._live += 1

    def _wakeup_items(self):
        return ((i, w) for i, w in enumerate(self._wake_round) if w is not None)

    def _restore_schedule(self, pending, runnable, wakeups) -> None:
        n = self._n
        self._default_hints = [
            type(a).is_idle is VertexAlgorithm.is_idle
            for a in self._algorithms
        ]
        self._pending = [None] * n
        for i, box in pending.items():
            self._pending[i] = box
        self._pending_ids = set(pending)
        self._runnable = runnable
        self._heap = []
        self._wake_round = [None] * n
        for i, w in wakeups.items():
            self._wake_round[i] = w
            heappush(self._heap, (w, i))
        self._live = sum(1 for ctx in self._contexts if not ctx._halted)
        # Restored pending state is always dictionary-shaped (capture
        # materializes); discard any plan from the pre-restore life.
        self._send_plan = None
        self._lazy_plan = None
        # Rebuild the kernel over the restored scalar state.  resume=True
        # makes its first round replay the restored inbox dictionaries
        # (the previous round's sends are not in any column yet).
        from .kernels import maybe_build_kernel

        self._kernel = maybe_build_kernel(self, resume=True)

    def capture_checkpoint(self) -> SimulationCheckpoint:
        if self._kernel is not None:
            # Columnar state becomes scalar truth before pickling, so
            # the envelope stays engine- and kernel-neutral.
            self._kernel.sync()
        if self._lazy_plan is not None:
            # Checkpoints serialize pending inboxes as real
            # dictionaries; a lazily-delivered plan must become one
            # first so restores stay bit-identical across modes.
            self._materialize_lazy()
        return super().capture_checkpoint()

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int = 10_000,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[..., None]] = None,
    ):
        """Execute until all vertices halt or ``max_rounds`` elapse.

        When both ``checkpoint_every`` and ``on_checkpoint`` are given,
        a :class:`~repro.congest.checkpoint.SimulationCheckpoint` is
        captured after every ``checkpoint_every``-th executed round and
        passed to ``on_checkpoint``.  On a restored engine, execution
        continues from the checkpointed round; ``max_rounds`` stays an
        absolute bound on the round counter.
        """
        from .network import SimulationResult

        contexts = self._contexts
        algorithms = self._algorithms
        crash_rounds = self._crash_rounds
        kernel = self._kernel
        if not self._initialized:
            self._initialized = True
            live_init = self._initial_cohort()
            if kernel is not None:
                kernel.initialize(live_init)
            else:
                for i in live_init:
                    algorithms[i].initialize(contexts[i])
            if self._registry is not None:
                with self._registry.span("congest.collect"):
                    self._collect(range(self._n))
            else:
                self._collect(range(self._n))
            self._runnable = {
                i for i in range(self._n) if not contexts[i]._halted
            }
            self._live = len(self._runnable)

        due_vertices = self._due_vertices
        collect = self._collect
        reschedule = self._reschedule
        record_round = self.metrics.record_round
        record_skipped = self._record_skipped
        trace = self.trace
        pending = self._pending
        pending_ids_discard = self._pending_ids.discard

        while self._round < max_rounds and (
            self._live > 0 or self._rejoin_queue
        ):
            next_round = self._round + 1
            if self._delay_queue:
                self._deliver_delayed(next_round)
            due = due_vertices(next_round)
            skipped = 0
            if not due:
                target = self._next_wakeup_round()
                rejoin_queue = self._rejoin_queue
                if rejoin_queue and (
                    target is None or rejoin_queue[0][0] < target
                ):
                    # A scheduled rejoin is an event like a wakeup: the
                    # quiescent stretch before it can be fast-forwarded.
                    target = rejoin_queue[0][0]
                if self._delay_queue:
                    # A withheld payload's release is an event too: its
                    # receiver becomes due the round it is delivered.
                    release = min(self._delay_queue)
                    if target is None or release < target:
                        target = release
                if target is None:
                    break  # nothing will ever happen again
                if target > max_rounds:
                    record_skipped(max_rounds - self._round)
                    self._round = max_rounds
                    break
                skipped = target - next_round
                record_skipped(skipped)
                next_round = target
                if self._delay_queue:
                    self._deliver_delayed(next_round)
                due = due_vertices(next_round)
            self._round = next_round
            revived = (
                self._process_rejoins(next_round)
                if self._rejoin_queue
                else ()
            )
            per_edge, messages, bits, bits_hist, fcounts = self._inflight
            self._inflight = _NO_TRAFFIC
            if self._want_detail:
                # Snapshot here, not at trace.record_round below: by
                # then _collect has already refilled the buffer with
                # the *next* round's events.
                detail_events = self._inflight_events
                self._inflight_events = []
                detail_events.sort(key=detail_event_sort_key)
            else:
                detail_events = None
            if self.faults is None:
                record_round(per_edge, messages, bits)
            else:
                record_round(per_edge, messages, bits, fcounts)
            live_before = self._live
            crashed_now = 0
            if self._snapshot_interval is not None and self._snapshot_targets:
                self._catch_up_local_snapshots(due, next_round)
            if crash_rounds is None:
                stepping = due
            else:
                # Fail-stop filtering happens before any stepping, so
                # both the scalar loop and a kernel see the same live
                # cohort (a vertex never steps at or after its crash
                # round and its mail dies with it).  Filtering drops a
                # crashing vertex's queued mail, which needs real inbox
                # dictionaries — materialize a lazily-delivered plan
                # first, preserving the scalar collect-then-filter
                # order.
                if self._lazy_plan is not None:
                    self._materialize_lazy()
                stepping = []
                for i in due:
                    cr = crash_rounds.get(i)
                    if cr is not None and next_round >= cr:
                        ctx = contexts[i]
                        ctx._halted = True
                        ctx._output = None
                        self._crashed.add(i)
                        crashed_now += 1
                        if pending[i] is not None:
                            pending[i] = None
                            pending_ids_discard(i)
                        continue
                    stepping.append(i)
            if kernel is not None:
                kernel.step_round(stepping, next_round)
            else:
                for i in stepping:
                    ctx = contexts[i]
                    ctx.round_number = next_round
                    box = pending[i]
                    if box is None:
                        box = {}
                    else:
                        pending[i] = None
                        pending_ids_discard(i)
                    algorithms[i].step(ctx, box)
            # A lazily-delivered plan is fully consumed by this round's
            # step (its receivers were all due); drop it before the
            # next collection replaces it.
            self._lazy_plan = None
            # Revived vertices may have queued messages while (re-)
            # initializing; drain their outboxes along with the steppers.
            registry = self._registry
            if registry is not None:
                with registry.span("congest.collect"):
                    collect(list(due) + list(revived) if revived else due)
            else:
                collect(list(due) + list(revived) if revived else due)
            reschedule(due)
            if self._snapshot_interval is not None and self._snapshot_targets:
                self._take_local_snapshots(due, next_round)
            if crashed_now:
                self.metrics.record_crashed(crashed_now)
            registry = self._registry
            if registry is not None:
                # Both observations are pure functions of the simulated
                # execution (the differential harness pins stepped
                # counts and message sizes equal across engines), so
                # fast and reference runs publish identical telemetry.
                registry.observe(
                    "congest.active_vertices", len(due) - crashed_now
                )
                if kernel is not None:
                    # Diagnostic hit counter; excluded from telemetry
                    # identity comparisons (see Registry.comparable_dict).
                    registry.count("congest.kernel.rounds")
                if bits_hist:
                    size_hist = registry.histogram("congest.message_bits")
                    for size, times in bits_hist.items():
                        size_hist.observe(size, times)
            if trace is not None:
                trace.record_round(
                    round_number=next_round,
                    per_edge_counts=per_edge,
                    messages=messages,
                    bits=bits,
                    stepped=len(due) - crashed_now,
                    idle=live_before - len(due),
                    halted=self._n - self._live,
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

        if kernel is not None:
            # Materialize columnar state (algorithm attributes, round
            # numbers, advanced RNG streams) back into the scalar
            # objects callers observe.
            kernel.sync()
        if self._registry is not None:
            self.metrics.publish_telemetry(self._registry)
        outputs = {self._verts[i]: contexts[i]._output for i in range(self._n)}
        return SimulationResult(
            outputs=outputs,
            metrics=self.metrics,
            halted=self._live == 0,
            crashed=frozenset(self._verts[i] for i in self._crashed),
        )

    # ------------------------------------------------------------------
    def _due_vertices(self, round_number: int) -> List[int]:
        due = self._runnable | self._pending_ids
        heap = self._heap
        wake = self._wake_round
        while heap and heap[0][0] <= round_number:
            w, i = heappop(heap)
            if wake[i] == w:
                wake[i] = None
                due.add(i)
        contexts = self._contexts
        live_due = []
        for i in sorted(due):
            if contexts[i]._halted:
                # A vertex that halted with mail still queued will never
                # read it; drop it from the active set for good.
                self._pending_ids.discard(i)
            else:
                live_due.append(i)
        return live_due

    def _next_wakeup_round(self) -> Optional[int]:
        """Earliest live scheduled wakeup, discarding stale heap entries."""
        heap = self._heap
        wake = self._wake_round
        while heap:
            w, i = heap[0]
            if wake[i] != w:
                heappop(heap)
                continue
            return w
        return None

    def _reschedule(self, stepped: List[int]) -> None:
        contexts = self._contexts
        algorithms = self._algorithms
        default_hints = self._default_hints
        runnable_discard = self._runnable.discard
        runnable_add = self._runnable.add
        wake = self._wake_round
        heap = self._heap
        current_round = self._round
        crash_rounds = self._crash_rounds
        for i in stepped:
            ctx = contexts[i]
            if ctx._halted:
                runnable_discard(i)
                wake[i] = None
                self._live -= 1
                continue
            if default_hints[i]:
                # Never idle: it is already runnable and has no wakeup.
                continue
            algo = algorithms[i]
            if algo.is_idle(ctx):
                runnable_discard(i)
                w = algo.next_wakeup(ctx)
                if crash_rounds is not None:
                    # Clamp the wakeup so a scheduled crash is noticed
                    # at its exact round even while the vertex is idle.
                    cr = crash_rounds.get(i)
                    if (
                        cr is not None
                        and cr > current_round
                        and (w is None or cr < w)
                    ):
                        w = cr
                if w is None or w <= current_round:
                    wake[i] = None
                elif wake[i] != w:
                    # An unchanged wakeup keeps its live heap entry
                    # instead of leaving a stale duplicate behind.
                    wake[i] = w
                    heappush(heap, (w, i))
            else:
                runnable_add(i)
                wake[i] = None

    def _collect(self, sender_ids) -> None:
        """Drain the outboxes of the vertices that just stepped.

        Only a stepped (or just-initialized) vertex can hold queued
        messages, so delivery touches the active set instead of all
        ``n`` vertices.  The collected traffic is buffered in
        ``_inflight`` and recorded against the round that delivers it.

        A kernel running batched delivery leaves its sends in
        ``_send_plan`` instead of the outboxes; those rounds divert to
        :meth:`_collect_batched` and never touch per-message objects.
        """
        plan = self._send_plan
        if plan is not None:
            self._send_plan = None
            self._collect_batched(plan)
            return
        contexts = self._contexts
        senders = [i for i in sender_ids if contexts[i]._outbox]
        if not senders:
            self._inflight = _NO_TRAFFIC
            return
        if self._registry is not None:
            self._registry.count("congest.delivery.scalar")
        per_edge: Dict[int, int] = {}
        messages = 0
        bits = 0
        max_bits = 0
        want_hist = self._want_bits_hist
        bits_hist: Dict[int, int] = {}
        n = self._n
        index = self._index
        pending = self._pending
        pending_ids_add = self._pending_ids.add
        verts = self._verts
        sizeof = message_bits
        per_edge_get = per_edge.get
        budget_bits = self.budget.bits
        strict = self.strict
        capacity = self.capacity
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
        for i in senders:
            ctx = contexts[i]
            outbox = ctx._outbox
            ctx._outbox = []
            v = verts[i]
            base = i * n
            last_payload = _UNSET
            last_size = 0
            for neighbor, payload in outbox:
                # Broadcasts queue the same payload object once per
                # neighbor; measuring it once per distinct object is
                # safe because the identity check cannot conflate values.
                if payload is last_payload:
                    size = last_size
                else:
                    # Inlined fast path of message_bits() for the two
                    # dominant payload shapes (bare ints and flat
                    # tuples); message_bits handles everything else
                    # with identical results, and the differential
                    # harness holds the two accountings equal.
                    tp = type(payload)
                    if tp is int:
                        size = (payload.bit_length() or 1) + _INT_EXTRA
                    elif tp is tuple:
                        size = FIELD_OVERHEAD_BITS
                        for item in payload:
                            ti = type(item)
                            if ti is int:
                                size += (item.bit_length() or 1) + _INT_EXTRA
                            elif ti is str:
                                size += 8 * len(item) + FIELD_OVERHEAD_BITS
                            elif item is None:
                                size += 1
                            elif ti is float:
                                size += _FLOAT_TOTAL
                            elif ti is bool:
                                size += _BOOL_BITS
                            else:
                                size += sizeof(item)
                    else:
                        size = sizeof(payload)
                    last_payload = payload
                    last_size = size
                if size > budget_bits:
                    raise MessageTooLargeError(
                        size,
                        budget_bits,
                        detail=f"from {v!r} to {neighbor!r}",
                    )
                if size > max_bits:
                    max_bits = size
                j = index[neighbor]
                ekey = base + j
                count = per_edge_get(ekey, 0) + 1
                per_edge[ekey] = count
                if strict and count > capacity:
                    raise ProtocolError(
                        f"edge {(v, neighbor)!r} carried {count} messages "
                        f"in one round (capacity {capacity})"
                    )
                messages += 1
                bits += size
                if want_hist:
                    # Keyed on what the sender was charged, so the
                    # histogram total always equals ``bits`` even when
                    # the fault channel below drops the transmission.
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
                box = pending[j]
                if box is None:
                    pending[j] = {v: [payload] * copies}
                    pending_ids_add(j)
                else:
                    lst = box.get(v)
                    if lst is None:
                        box[v] = [payload] * copies
                    else:
                        lst.append(payload)
                        if copies == 2:
                            lst.append(payload)
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        self._inflight = (
            per_edge,
            messages,
            bits,
            bits_hist,
            (dropped, duplicated, corrupted, delayed, topo_lost, partitioned)
            if injector is not None
            else NO_FAULTS,
        )

    def _collect_batched(self, plan) -> None:
        """Charge a columnar send plan without materializing inboxes.

        The plan's vectorized accounting reproduces the scalar path
        bit-for-bit (same per-edge counts, bits, histogram, errors);
        receivers are marked due via ``_pending_ids`` but their inbox
        dictionaries stay unbuilt — the plan itself is parked in
        ``_lazy_plan`` and reconstructed only if checkpoint capture or
        crash filtering needs object-level messages.  Kernelized plans
        ride a lossless channel by construction (message-faulting plans
        disable kernels), so the fault channel is skipped; crash-only
        injectors still get their zeroed per-round fault counters.
        """
        per_edge, messages, bits, bits_hist, max_bits, receivers = (
            plan.account(self)
        )
        if max_bits > self.metrics.max_message_bits:
            self.metrics.max_message_bits = max_bits
        self._pending_ids.update(receivers)
        self._lazy_plan = plan
        if self._registry is not None:
            self._registry.count("congest.delivery.batched")
        self._inflight = (
            per_edge,
            messages,
            bits,
            bits_hist,
            NO_FAULTS,
        )

    def _materialize_lazy(self) -> None:
        """Build the inbox dictionaries a lazily-delivered plan deferred."""
        plan = self._lazy_plan
        self._lazy_plan = None
        plan.materialize(self)
        if self._registry is not None:
            self._registry.count("congest.delivery.materialized")
