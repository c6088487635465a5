"""Telemetry sinks: JSONL events, Prometheus text, terminal report.

All three consume the plain-data registry payload
(:meth:`repro.obs.registry.TelemetryRegistry.to_dict`), so they work
identically on a live registry, a merged cross-process payload, and
the ``telemetry`` section of a saved benchmark snapshot.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterator, List, Optional

from .histogram import FixedHistogram


def iter_events(data: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """One JSONL-able event per aggregate metric in a registry payload."""
    for name in sorted(data.get("counters", {})):
        yield {"event": "counter", "name": name,
               "value": data["counters"][name]}
    for name in sorted(data.get("gauges", {})):
        yield {"event": "gauge", "name": name, "value": data["gauges"][name]}
    for name in sorted(data.get("histograms", {})):
        hist = FixedHistogram.from_dict(data["histograms"][name])
        yield {"event": "histogram", "name": name, **hist.summary()}
    for path in sorted(data.get("spans", {})):
        yield {"event": "span_total", "path": path, **data["spans"][path]}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def prometheus_text(data: Dict[str, Any], prefix: str = "repro") -> str:
    """Render a registry payload in the Prometheus text format.

    Counters become ``<prefix>_<name>_total``, gauges plain gauges,
    histograms the standard ``_bucket``/``_sum``/``_count`` triple with
    cumulative upper-inclusive ``le`` labels, and span aggregates a pair
    of counters labeled by span path.
    """
    lines: List[str] = []
    for name in sorted(data.get("counters", {})):
        metric = f"{prefix}_{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {data['counters'][name]}")
    for name in sorted(data.get("gauges", {})):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {data['gauges'][name]}")
    for name in sorted(data.get("histograms", {})):
        hist = FixedHistogram.from_dict(data["histograms"][name])
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for i, bound in enumerate(hist.bounds):
            cumulative += hist.buckets[i]
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {hist.total}")
        lines.append(f"{metric}_count {hist.count}")
    spans = data.get("spans", {})
    if spans:
        count_metric = f"{prefix}_span_count_total"
        wall_metric = f"{prefix}_span_wall_seconds_total"
        lines.append(f"# TYPE {count_metric} counter")
        lines.append(f"# TYPE {wall_metric} counter")
        for path in sorted(spans):
            stats = spans[path]
            lines.append(f'{count_metric}{{span="{path}"}} {stats["count"]}')
            lines.append(
                f'{wall_metric}{{span="{path}"}} '
                f'{stats["wall_ns"] / 1e9:.6f}'
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Terminal report
# ----------------------------------------------------------------------

def _rows_to_text(title: str, header: List[str],
                  rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [title]
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return out


def render_report(
    data: Dict[str, Any],
    suites: Optional[Dict[str, Any]] = None,
) -> str:
    """Human-readable terminal report of a registry payload.

    ``suites`` is the optional per-suite/per-cell timing section of a
    benchmark snapshot (see :mod:`repro.obs.baseline`); when given, a
    cell-timing table is appended.
    """
    sections: List[str] = []

    spans = data.get("spans", {})
    if spans:
        rows = []
        for path in sorted(spans):
            stats = spans[path]
            rows.append([
                path,
                str(stats["count"]),
                f"{stats['wall_ns'] / 1e6:.2f}",
                f"{stats['cpu_ns'] / 1e6:.2f}",
            ])
        sections.extend(_rows_to_text(
            "phase spans", ["span", "count", "wall ms", "cpu ms"], rows
        ))
        sections.append("")

    counters = data.get("counters", {})
    gauges = data.get("gauges", {})
    if counters or gauges:
        rows = [[name, str(counters[name])] for name in sorted(counters)]
        rows.extend(
            [name, str(gauges[name]) + " (gauge)"] for name in sorted(gauges)
        )
        sections.extend(_rows_to_text(
            "counters / gauges", ["name", "value"], rows
        ))
        sections.append("")

    histograms = data.get("histograms", {})
    if histograms:
        rows = []
        for name in sorted(histograms):
            hist = FixedHistogram.from_dict(histograms[name])
            summary = hist.summary()
            rows.append([
                name,
                str(summary["count"]),
                f"{summary['mean']:.2f}",
                str(summary["p50"]),
                str(summary["p95"]),
                str(summary["max"]),
            ])
        sections.extend(_rows_to_text(
            "histograms", ["name", "count", "mean", "p50", "p95", "max"], rows
        ))
        sections.append("")

    if suites:
        rows = []
        for suite_name in sorted(suites):
            suite = suites[suite_name]
            for label in sorted(suite.get("cells", {})):
                cell = suite["cells"][label]
                rows.append([label, f"{cell['elapsed']:.4f}"])
            rows.append([
                f"{suite_name} (suite wall)",
                f"{suite.get('wall_seconds', 0.0):.4f}",
            ])
        sections.extend(_rows_to_text(
            "cell timings", ["cell", "seconds"], rows
        ))
        sections.append("")

    if not sections:
        return "telemetry: empty registry\n"
    return "\n".join(sections)
