"""Engine-neutral bookkeeping shared by both CONGEST engines.

The fast engine (:mod:`repro.congest.engine`) and the reference engine
(:mod:`repro.congest.reference`) each schedule, step and collect rounds
with their own code, so the differential harness keeps comparing two
independent implementations of the part that is optimized.  Everything
else a simulation keeps is engine-neutral and lives here, once:

* per-vertex state construction (:func:`build_vertex_state`) and the
  configuration both engines carry;
* the fail-stop crash and rejoin schedule built from the
  :class:`~repro.congest.faults.FaultInjector`, rejoin revival, and the
  local crash-recovery snapshots (taken after a step, caught up after
  an idle stretch);
* the ordered release of payloads the fault channel delayed;
* skipped-round recording;
* checkpoint capture and restore: translation of the vertex-keyed
  ``state`` blob in both directions and the
  :class:`~repro.congest.checkpoint.SimulationCheckpoint` envelope.

An engine addresses vertices by *keys*: dense integer ids in the fast
engine, the vertex labels themselves in the reference engine.  Its
per-vertex containers (``_contexts``, ``_algorithms``, ``_pending``)
are indexed by key, as a list or as a dict, and it tells
:class:`EngineBookkeeping` how keys map to vertices plus how its own
scheduler absorbs a revival, a released payload and a restore.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import CheckpointError
from ..graph import Graph, canonical_vertex_order
from ..obs import registry as _telemetry
from ..rng import ensure_rng
from .algorithm import VertexAlgorithm, VertexContext
from .checkpoint import (
    PICKLE_PROTOCOL,
    SimulationCheckpoint,
    graph_fingerprint,
    verify_restore_target,
)
from .faults import NO_FAULTS, FaultInjector, pad_fault_counts
from .message import MessageBudget
from .metrics import CongestMetrics
from .trace import RoundTrace, TraceRecorder

#: Sentinel for "no traffic in flight": (per-edge counts, messages,
#: bits, message-size histogram, per-round fault counters).
_NO_TRAFFIC: Tuple[Dict, int, int, Dict, Tuple[int, ...]] = (
    {}, 0, 0, {}, NO_FAULTS
)


def build_vertex_state(
    graph: Graph,
    algorithm_factory: Callable[[Any], VertexAlgorithm],
    seed,
) -> Tuple[List[Any], List[VertexContext], List[VertexAlgorithm]]:
    """Construct per-vertex contexts and algorithms in canonical order.

    Shared by both engines so that the per-vertex RNG streams (derived
    from the root seed in canonical vertex order) are identical no
    matter which engine runs the algorithm.
    """
    root_rng = ensure_rng(seed)
    getrandbits = root_rng.getrandbits
    order = canonical_vertex_order(graph.vertices())
    n = graph.n
    adj = graph._adj
    contexts: List[VertexContext] = []
    algorithms: List[VertexAlgorithm] = []
    for v in order:
        row = adj[v]
        neighbors = canonical_vertex_order(row)
        ctx = VertexContext(
            vertex=v,
            neighbors=neighbors,
            edge_weights={u: row[u] for u in neighbors},
            n=n,
            rng_seed=getrandbits(64),
        )
        contexts.append(ctx)
        algorithms.append(algorithm_factory(v))
    return order, contexts, algorithms


class EngineBookkeeping:
    """Base class of both engines; see the module docstring.

    A subclass supplies the key mapping:

    * ``_keys`` — every key, in canonical vertex order;
    * ``_vertex(key)`` / ``_key(vertex)`` — the two directions;
    * ``_by_key(values)`` — a per-vertex container of ``values``
      (given in canonical order);
    * ``_edge_vertices(edge)`` / ``_edge_key(sender, receiver)`` — the
      same for the keys of the in-flight per-edge counters;

    and its scheduler hooks:

    * ``_enqueue(key, sender, payload)`` — append a released payload
      to the vertex's pending inbox;
    * ``_on_revive(key)`` — drop a revived vertex's dead mail and
      wakeup, and make it runnable unless it is halted;
    * ``_wakeup_items()`` — the scheduled ``(key, round)`` wakeups;
    * ``_restore_schedule(pending, runnable, wakeups)`` — rebuild the
      inboxes and the scheduler (key-translated) after a restore.
    """

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
        self._verts: List[Any] = order
        # Canonical rank: the fast engine's integer id, and the
        # tie-break of delayed-delivery order in both engines.
        self._index: Dict[Any, int] = {v: i for i, v in enumerate(order)}
        self._n = len(order)
        self._contexts = self._by_key(contexts)
        self._algorithms = self._by_key(algorithms)
        self._round = 0
        # Telemetry is sampled once at construction: a simulator built
        # inside an enabled scope records into that scope's registry for
        # its whole run; outside one, the hot path stays branch-free.
        self._registry = (
            _telemetry.current_registry() if _telemetry.enabled() else None
        )
        # The per-size message histogram is only worth building when
        # something will consume it (a trace recorder or telemetry).
        self._want_bits_hist = trace is not None or self._registry is not None
        # Per-message provenance events (trace schema 5): opt-in via
        # TraceRecorder(detail=True); off by default so the hot path —
        # and the emitted JSONL — stay exactly the v4 shape.
        self._want_detail = trace is not None and getattr(
            trace, "detail", False
        )
        # Detail events buffered alongside _inflight: collected at the
        # end of round r, attributed to the round they deliver into.
        self._inflight_events: List[Dict[str, Any]] = []
        # Traffic collected at the end of the previous round, awaiting
        # delivery (and metric attribution) at the next executed round.
        self._inflight: Tuple[Dict, int, int, Dict, Tuple[int, ...]] = (
            _NO_TRAFFIC
        )
        # Payloads the fault channel withheld, keyed by release round:
        # release -> [(send round, sender, receiver, payload[, seq])].
        # Vertex-keyed (never by engine key) so checkpoints stay
        # engine-neutral.
        self._delay_queue: Dict[int, List[Tuple]] = {}
        # Crash schedule (key -> crash round), or None when the plan has
        # no crashes so the hot path can skip the lookup entirely.
        if faults is not None and faults.plan.crashes:
            key = self._key
            self._crash_rounds: Optional[Dict[Any, int]] = {
                key(v): faults.crash_round(v)
                for v in order
                if faults.crash_round(v) is not None
            }
            # Crash-recovery schedule: (rejoin round, key), sorted by
            # round with canonical order breaking ties (the stable sort
            # keeps the canonical order within equal rounds).
            rejoins = [
                (faults.rejoin_round(v), key(v))
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
        self._snapshot_targets: Set[Any] = {k for _, k in self._rejoin_queue}
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

    def _record_skipped(self, rounds: int) -> None:
        self.metrics.record_skipped(rounds)
        if self._registry is not None and rounds > 0:
            # Telemetry only: metrics summaries keep their shape.
            self._registry.count("congest.rounds_skipped", rounds)

    # -- crash recovery -------------------------------------------------
    def _initial_cohort(self) -> List[Any]:
        """Keys that initialize, in canonical order.

        A vertex whose crash round is 0 or earlier fail-stops before
        initializing: it is marked halted and crashed here instead.
        """
        keys = list(self._keys)
        crash_rounds = self._crash_rounds
        if crash_rounds is None:
            return keys
        live = []
        for k in keys:
            cr = crash_rounds.get(k)
            if cr is not None and cr <= 0:
                self._contexts[k]._halted = True
                self._crashed.add(k)
            else:
                live.append(k)
        if len(live) < len(keys):
            self.metrics.record_crashed(len(keys) - len(live))
        return live

    def _process_rejoins(self, round_number: int) -> List[Any]:
        """Revive crashed vertices whose scheduled rejoin round arrived.

        A revived vertex restores from its most recent local snapshot
        (see :meth:`_take_local_snapshots`) or, when none was taken,
        re-initializes from scratch with its original RNG seed.  Mail
        queued while it was dead is lost either way; the vertex steps
        again from the next round on.  A rejoin scheduled for a vertex
        that halted normally before its crash round fired is dropped —
        there is nothing to recover.
        """
        queue = self._rejoin_queue
        contexts = self._contexts
        revived: List[Any] = []
        while queue and queue[0][0] <= round_number:
            _, k = queue.pop(0)
            self._snapshot_targets.discard(k)
            if k not in self._crashed:
                continue
            self._crashed.discard(k)
            if self._crash_rounds is not None:
                # The crash has been consumed; without this the vertex
                # would fail-stop again on its next step.
                self._crash_rounds.pop(k, None)
            snapshot = self._snapshots.pop(k, None)
            self._snapshot_rounds.pop(k, None)
            if snapshot is not None:
                algorithm, ctx = pickle.loads(snapshot)
            else:
                old = contexts[k]
                ctx = VertexContext(
                    vertex=old.vertex,
                    neighbors=old.neighbors,
                    edge_weights=dict(old.edge_weights),
                    n=old.n,
                    rng_seed=old._rng_seed,
                )
                algorithm = self._factory(old.vertex)
            ctx.round_number = round_number
            contexts[k] = ctx
            self._algorithms[k] = algorithm
            if snapshot is None:
                algorithm.initialize(ctx)
            self._on_revive(k)
            revived.append(k)
        if revived:
            self.metrics.record_rejoined(len(revived))
        return revived

    def _snapshot(self, k, round_number: int) -> None:
        self._snapshots[k] = pickle.dumps(
            (self._algorithms[k], self._contexts[k]),
            protocol=PICKLE_PROTOCOL,
        )
        self._snapshot_rounds[k] = round_number

    def _take_local_snapshots(self, stepped, round_number: int) -> None:
        """Snapshot rejoin-scheduled vertices every ``checkpoint_interval``
        rounds of their round clock, so their later revival restores
        real state.

        Runs after collection, so a snapshot never contains queued
        outbox messages and revival cannot re-send anything.
        """
        interval = self._snapshot_interval
        targets = self._snapshot_targets
        contexts = self._contexts
        last_rounds = self._snapshot_rounds
        for k in stepped:
            if k in targets and not contexts[k]._halted:
                last = last_rounds.get(k)
                if last is None or round_number - last >= interval:
                    self._snapshot(k, round_number)

    def _catch_up_local_snapshots(self, due, round_number: int) -> None:
        """Take the snapshot an idle stretch skipped, before stepping.

        A never-idle vertex snapshots at ``last + k * interval``; an
        idle vertex is not stepped in those rounds, but its state is
        frozen between steps, so the latest such round before
        ``round_number`` is snapshotted from the pre-step state.  Runs
        before crash filtering, which would mark the context halted.
        """
        interval = self._snapshot_interval
        targets = self._snapshot_targets
        last_rounds = self._snapshot_rounds
        for k in due:
            if k in targets:
                last = last_rounds.get(k)
                if last is not None and round_number - last > interval:
                    self._snapshot(
                        k,
                        round_number - 1 - (round_number - 1 - last) % interval,
                    )

    # -- delayed delivery -----------------------------------------------
    def _deliver_delayed(self, round_number: int) -> None:
        """Release withheld payloads whose delivery round has arrived.

        Entries are ordered by (send round, sender rank, receiver rank)
        — a pure function of the plan and the canonical vertex order —
        so both engines append released payloads to the pending inboxes
        in the identical order regardless of internal iteration order.
        """
        queue = self._delay_queue
        ready = [r for r in queue if r <= round_number]
        if not ready:
            return
        entries: List[Tuple] = []
        for release in sorted(ready):
            entries.extend(queue.pop(release))
        index = self._index
        entries.sort(key=lambda e: (e[0], index[e[1]], index[e[2]]))
        key = self._key
        for entry in entries:
            # Detail-mode entries carry a fifth element: the original
            # per-edge sequence number (see the engines' _collect).
            send_round, sender, receiver, payload = entry[:4]
            if self._want_detail:
                event = {
                    "s": repr(sender), "r": repr(receiver),
                    "o": "release", "sr": send_round,
                }
                if len(entry) > 4:
                    event["q"] = entry[4]
                self._inflight_events.append(event)
            self._enqueue(key(receiver), sender, payload)

    # -- checkpoint / restore -------------------------------------------
    def capture_checkpoint(self) -> SimulationCheckpoint:
        """Freeze the simulation at the current round boundary.

        The state blob is keyed by vertex (never by engine key), and
        normalized so both engines capture identical logical state:
        inboxes, wakeups, and runnable flags of halted vertices are
        dead weight the engines handle lazily and are excluded.
        """
        keys = self._keys
        vertex = self._vertex
        contexts = self._contexts
        pending = self._pending
        per_edge, messages, bits, bits_hist, fcounts = self._inflight
        state = {
            "contexts": {vertex(k): contexts[k] for k in keys},
            "algorithms": {vertex(k): self._algorithms[k] for k in keys},
            "pending": {
                vertex(k): pending[k]
                for k in keys
                if pending[k] and not contexts[k]._halted
            },
            "runnable": {
                vertex(k) for k in self._runnable if not contexts[k]._halted
            },
            "wakeups": {
                vertex(k): w
                for k, w in self._wakeup_items()
                if not contexts[k]._halted
            },
            "inflight": {
                "per_edge": [
                    self._edge_vertices(edge) + (count,)
                    for edge, count in per_edge.items()
                ],
                "messages": messages,
                "bits": bits,
                "bits_hist": dict(bits_hist),
                "fcounts": tuple(fcounts),
            },
            # Withheld payloads still in flight, flattened in release
            # order (detail-mode entries carry a trailing sequence
            # number).
            "delayed": [
                (release,) + tuple(entry)
                for release in sorted(self._delay_queue)
                for entry in self._delay_queue[release]
            ],
            # Detail events buffered for the next executed round
            # (empty unless the trace recorder asked for detail).
            "inflight_events": [dict(e) for e in self._inflight_events],
            "crashed": {vertex(k) for k in self._crashed},
            "crash_rounds": (
                None
                if self._crash_rounds is None
                else {vertex(k): cr for k, cr in self._crash_rounds.items()}
            ),
            "rejoin_queue": [(r, vertex(k)) for r, k in self._rejoin_queue],
            "snapshots": {
                vertex(k): blob for k, blob in self._snapshots.items()
            },
            "snapshot_rounds": {
                vertex(k): r for k, r in self._snapshot_rounds.items()
            },
            "initialized": self._initialized,
        }
        if self._registry is not None:
            self._registry.count("congest.checkpoints_captured")
        return SimulationCheckpoint(
            round=self._round,
            n=self._n,
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

        Accepts checkpoints captured by either engine.  The engine must
        have been constructed over the same graph and configuration the
        checkpoint came from (mismatches raise
        :class:`~repro.errors.CheckpointError`); construction-time
        vertex state is discarded.  ``run()`` then continues from the
        checkpointed round.
        """
        verify_restore_target(self, checkpoint, self._n)
        try:
            state = pickle.loads(checkpoint.state)
        except Exception as exc:
            raise CheckpointError(
                f"cannot unpickle checkpoint state: {exc}"
            ) from exc
        key = self._key
        try:
            contexts = state["contexts"]
            algorithms = state["algorithms"]
            self._contexts = self._by_key([contexts[v] for v in self._verts])
            self._algorithms = self._by_key(
                [algorithms[v] for v in self._verts]
            )
            schedule = (
                {key(v): box for v, box in state["pending"].items()},
                {key(v) for v in state["runnable"]},
                {key(v): w for v, w in state["wakeups"].items()},
            )
            inflight = state["inflight"]
            self._inflight = (
                {
                    self._edge_key(u, w): count
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
            self._crashed = {key(v) for v in state["crashed"]}
            crash_rounds = state["crash_rounds"]
            self._crash_rounds = (
                None
                if crash_rounds is None
                else {key(v): cr for v, cr in crash_rounds.items()}
            )
            self._rejoin_queue = [
                (r, key(v)) for r, v in state["rejoin_queue"]
            ]
            self._snapshot_targets = {k for _, k in self._rejoin_queue}
            self._snapshots = {
                key(v): blob for v, blob in state["snapshots"].items()
            }
            self._snapshot_rounds = {
                key(v): r for v, r in state["snapshot_rounds"].items()
            }
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
        self._restore_schedule(*schedule)
        if self._registry is not None:
            self._registry.count("congest.checkpoints_restored")
