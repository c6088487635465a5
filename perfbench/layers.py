"""Outside-in tracing: wrap the library's public functions at call sites.

The traced run installs one wrapper per hook below.  A wrapper records
a span (layer, start, end, parent span) in memory and hands the
result to a counter that reads the work the call did (rounds,
messages, clusters, ...).  A layer's busy time is its *self* time: the
span's duration minus the time its child spans cover.  Nothing inside
``src/`` is edited; a hook whose target was renamed away is reported
as missing and its time falls to the enclosing layer (at the top, to
``other.busy_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


# -- counters: read the work a call did from its result ----------------------

def _count_sim(counts, args, result):
    m = result.metrics
    counts["congest.sims"] += 1
    counts["congest.rounds"] += m.rounds
    counts["congest.messages"] += m.total_messages
    counts["congest.bits"] += m.total_bits


def _count_eigen(counts, args, result):
    counts["spectral.eigen_calls"] += 1
    counts["spectral.eigen_rows"] += args[0].n


def _counter(name: str) -> Callable:
    def count(counts, args, result):
        counts[name] += 1
    return count


def _count_decomposition(counts, args, result):
    counts["decomposition.calls"] += 1
    counts["decomposition.clusters"] += result.k
    counts["decomposition.cut_edges"] += len(result.cut_edges)


def _count_rounds(layer: str) -> Callable:
    def count(counts, args, result):
        counts[f"{layer}.rounds"] += result[1].metrics.rounds
    return count


def _count_walk(counts, args, result):
    counts["routing.walk.calls"] += 1
    counts["routing.walk.rounds"] += result.metrics.rounds
    counts["routing.walk.messages"] += result.metrics.total_messages
    delivered = len(result.requests_delivered)
    counts["routing.walk.delivered"] += delivered
    counts["routing.walk.requested"] += delivered + len(result.undelivered)


def _count_solve(counts, args, result):
    counts["solve.calls"] += 1
    counts["solve.vertices"] += args[0].n


#: (layer, module, attribute path, counter).  Functions are wrapped
#: where the calling module looks them up, so e.g. the spectral hooks
#: sit on the names ``decomposition.expander`` imported.
HOOKS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("congest", "repro.congest.network", "CongestSimulator.__init__", None),
    ("congest", "repro.congest.network", "CongestSimulator.run", _count_sim),
    ("spectral.eigen", "repro.decomposition.expander", "lambda2_and_fiedler",
     _count_eigen),
    ("spectral.sweep", "repro.decomposition.expander", "sweep_cut",
     _counter("spectral.sweep_calls")),
    ("spectral.exact", "repro.decomposition.expander", "exact_conductance",
     _counter("spectral.exact_calls")),
    ("spectral.mixing", "repro.spectral.random_walk", "mixing_time_bound",
     _counter("spectral.mixing_calls")),
    ("decomposition", "repro.decomposition.expander", "expander_decomposition",
     _count_decomposition),
    ("decomposition", "repro.core.framework", "expander_decomposition",
     _count_decomposition),
    ("routing.leader", "repro.routing.gather", "elect_leader",
     _count_rounds("routing.leader")),
    ("routing.orientation", "repro.routing.gather", "orient_low_out_degree",
     _count_rounds("routing.orientation")),
    ("routing.walk", "repro.routing.gather", "walk_exchange", _count_walk),
    ("routing.gather", "repro.core.framework", "gather_topology", None),
    ("core.framework", "repro.core.framework", "run_framework",
     _counter("core.framework.calls")),
    ("core.framework", "repro.independent_set.distributed", "run_framework",
     _counter("core.framework.calls")),
    ("core.framework", "repro.dominating_set.distributed", "run_framework",
     _counter("core.framework.calls")),
    ("core.failure", "repro.core.framework", "degree_condition_holds", None),
    ("core.failure", "repro.core.framework", "diameter_within", None),
    ("solve", "repro.independent_set.distributed", "solve_maxis", _count_solve),
    ("solve", "repro.dominating_set.distributed", "solve_mds", _count_solve),
    ("solve", "workloads", "degree_solver", _count_solve),
] + [
    ("generators", "repro.generators", name, None)
    for name in ("delaunay_planar_graph", "grid_graph", "k_tree",
                 "toroidal_grid_graph", "triangulated_grid_graph")
]

#: Counts that only an algorithmic change may move; a pure-speed change
#: must leave them identical, and every pass with one seed must agree.
EXACT_COUNTS = (
    "congest.rounds", "congest.messages", "congest.bits",
    "decomposition.clusters", "decomposition.cut_edges",
    "spectral.eigen_calls",
)

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("congest.sims", "count"), ("congest.busy_s", "s"),
    ("congest.rounds", "count"), ("congest.messages", "count"),
    ("congest.bits", "count"), ("congest.us_per_round", "us"),
    ("congest.us_per_msg", "us"),
    ("spectral.eigen_calls", "count"), ("spectral.eigen_busy_s", "s"),
    ("spectral.eigen_rows", "count"), ("spectral.sweep_calls", "count"),
    ("spectral.sweep_busy_s", "s"), ("spectral.exact_calls", "count"),
    ("spectral.exact_busy_s", "s"), ("spectral.mixing_calls", "count"),
    ("spectral.mixing_busy_s", "s"),
    ("decomposition.calls", "count"), ("decomposition.busy_s", "s"),
    ("decomposition.clusters", "count"), ("decomposition.cut_edges", "count"),
    ("decomposition.certified_ratio", "ratio"),
    ("routing.leader.busy_s", "s"), ("routing.leader.rounds", "count"),
    ("routing.orientation.busy_s", "s"),
    ("routing.orientation.rounds", "count"),
    ("routing.walk.calls", "count"), ("routing.walk.busy_s", "s"),
    ("routing.walk.rounds", "count"), ("routing.walk.messages", "count"),
    ("routing.walk.delivered_ratio", "ratio"), ("routing.gather.busy_s", "s"),
    ("core.framework.calls", "count"), ("core.framework.busy_s", "s"),
    ("core.failure.busy_s", "s"),
    ("solve.calls", "count"), ("solve.busy_s", "s"),
    ("solve.vertices", "count"),
    ("generators.busy_s", "s"), ("other.busy_s", "s"),
    ("traced.wall_s", "s"), ("tracing.overhead_s", "s"),
]


def _busy_name(layer: str) -> str:
    """``spectral.eigen`` -> ``spectral.eigen_busy_s``; else ``<layer>.busy_s``."""
    if layer.startswith("spectral."):
        return f"{layer}_busy_s"
    return f"{layer}.busy_s"


class Tracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[List] = []  # [span index, child time]
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.found: List[str] = []
        self.missing: List[str] = []

    def call(self, layer: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` inside a span of ``layer``; return its result."""
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append((layer, 0.0, 0.0, parent))
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.busy[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[frame[0]] = (layer, start, end, parent)

    def install(self) -> None:
        """Wrap every hook that resolves; record the ones that do not."""
        for layer, module_name, path, counter in HOOKS:
            name = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *prefix, attr = path.split(".")
                for part in prefix:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(layer, original, counter))
            self.found.append(name)

    def _wrap(self, layer: str, fn: Callable, counter: Optional[Callable]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    def layer_values(self, wall_s: float) -> Dict[str, float]:
        """Busy times and counts keyed by metric name (ratios derived)."""
        values: Dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
        for layer, seconds in self.busy.items():
            values[_busy_name(layer)] = seconds
        for name, count in self.counts.items():
            if name in values:
                values[name] = count
        rounds, messages = values["congest.rounds"], values["congest.messages"]
        congest_s = values["congest.busy_s"]
        values["congest.us_per_round"] = 1e6 * congest_s / rounds if rounds else 0
        values["congest.us_per_msg"] = (
            1e6 * congest_s / messages if messages else 0)
        examined = values["decomposition.clusters"] + values["spectral.sweep_calls"]
        values["decomposition.certified_ratio"] = (
            values["decomposition.clusters"] / examined if examined else 0)
        requested = self.counts["routing.walk.requested"]
        values["routing.walk.delivered_ratio"] = (
            self.counts["routing.walk.delivered"] / requested if requested else 0)
        values["traced.wall_s"] = wall_s
        return values

    def write_chrome_trace(self, path: str) -> None:
        """Dump the spans as a Chrome/Perfetto trace (complete events)."""
        if not self.spans:
            return
        origin = min(start for _, start, _, _ in self.spans)
        events = [
            {"name": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round(1e6 * (start - origin), 3),
             "dur": round(1e6 * (end - start), 3),
             "args": {"span": i, "parent": parent}}
            for i, (layer, start, end, parent) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
