"""Unified telemetry: phase spans, counters, gauges, and histograms.

The paper's claims are resource claims — rounds, O(log n)-bit messages,
inter-cluster edge budgets, routing congestion — and the ROADMAP's
north star is throughput.  Both need *attribution*: which phase of the
pipeline spent the time, how the per-edge congestion is distributed
(not just its max), how message sizes spread below the budget, and
whether a change regressed any of it.  ``repro.obs`` is that substrate:

* :func:`span` — hierarchical phase spans with monotonic wall/CPU
  timing (``span("partition")`` / nested ``span("gather")`` yields the
  path ``partition/gather``);
* :func:`count` / :func:`gauge` / :func:`observe` — counters, gauges,
  and fixed-bucket histograms;
* :class:`TelemetryRegistry` — the process-global store behind those
  helpers, mergeable across process boundaries via the same
  ``to_dict``/``merge_dict`` pattern ``CongestMetrics`` uses;
* sinks — JSONL events, Prometheus text exposition, and a
  rendered terminal report (``repro obs report``);
* baselines — schema-versioned perf snapshots (``repro bench
  --telemetry out.json``) diffed for regressions by
  ``repro obs diff old.json new.json --budget 1.25``.

Telemetry is **off by default** and costs ~nothing when off: every
helper starts with one module-flag check, and :func:`span` returns a
shared no-op context manager.  Nothing in this package imports the
rest of ``repro``, so any module may instrument itself freely.
"""

from .histogram import DEFAULT_BOUNDS, FixedHistogram
from .registry import (
    NO_SPAN,
    TelemetryRegistry,
    count,
    current_registry,
    disable,
    enable,
    enabled,
    gauge,
    observe,
    reset,
    span,
    telemetry_scope,
)
from .sinks import iter_events, prometheus_text, render_report
from .baseline import (
    SNAPSHOT_SCHEMA_VERSION,
    BaselineDiff,
    build_snapshot,
    diff_snapshots,
    load_snapshot,
    write_snapshot,
)
from .trace import (
    Divergence,
    VertexRoundReport,
    diff_traces,
    explain_vertex,
    load_trace_jsonl,
    split_streams,
)
from .timeline import (
    chrome_trace,
    timeline_from_snapshot,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "FixedHistogram",
    "NO_SPAN",
    "TelemetryRegistry",
    "count",
    "current_registry",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "observe",
    "reset",
    "span",
    "telemetry_scope",
    "iter_events",
    "prometheus_text",
    "render_report",
    "SNAPSHOT_SCHEMA_VERSION",
    "BaselineDiff",
    "build_snapshot",
    "diff_snapshots",
    "load_snapshot",
    "write_snapshot",
    "Divergence",
    "VertexRoundReport",
    "diff_traces",
    "explain_vertex",
    "load_trace_jsonl",
    "split_streams",
    "chrome_trace",
    "timeline_from_snapshot",
    "validate_chrome_trace",
    "write_chrome_trace",
]
