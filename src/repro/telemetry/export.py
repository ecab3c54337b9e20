"""Exporters for a telemetry :class:`~repro.telemetry.core.Registry`.

Three output shapes:

- :func:`summary_table` -- an aligned human-readable text report;
- :func:`to_json` -- a plain-dict snapshot (counters, histograms,
  span aggregates) for machine consumption;
- :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event format (open the file at ``chrome://tracing`` or
  https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
from typing import List

from repro.telemetry.core import MAX_TRACE_EVENTS, Registry

__all__ = [
    "chrome_trace",
    "summary_table",
    "to_json",
    "trace_tree",
    "write_chrome_trace",
]


def to_json(registry: Registry) -> dict:
    """Snapshot every aggregate as JSON-ready plain data."""
    return {
        "counters": dict(registry.counters),
        "histograms": {
            name: hist.to_dict() for name, hist in registry.histograms.items()
        },
        "spans": {path: stat.to_dict() for path, stat in registry.spans.items()},
        "trace_events": len(registry.events),
        "dropped_events": registry.dropped_events,
        "max_trace_events": MAX_TRACE_EVENTS,
    }


def trace_tree(registry: Registry) -> dict:
    """The span aggregates as a nested tree (the request trace tree).

    Each node: ``{"name", "calls", "total_s", "children": [...]}``.
    Paths like ``cluster.encode/shard[shard-0]/serving.encode`` become the
    obvious nesting; interior nodes that were never themselves a span
    (only a reparenting point) carry zero calls.
    """
    root = {"name": "", "calls": 0, "total_s": 0.0, "children": []}
    index = {"": root}
    for path in sorted(registry.spans):
        stat = registry.spans[path]
        parts = path.split("/")
        walked = ""
        for part in parts:
            child_path = f"{walked}/{part}" if walked else part
            node = index.get(child_path)
            if node is None:
                node = {
                    "name": part,
                    "calls": 0,
                    "total_s": 0.0,
                    "children": [],
                }
                index[walked]["children"].append(node)
                index[child_path] = node
            walked = child_path
        index[path]["calls"] = stat.calls
        index[path]["total_s"] = stat.total_s
    return root


def chrome_trace(registry: Registry) -> dict:
    """Trace-event-format document for ``chrome://tracing`` / Perfetto."""
    metadata = {
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": "llm265"},
    }
    return {
        "traceEvents": [metadata] + list(registry.events),
        "displayTimeUnit": "ms",
        "otherData": {"dropped_events": registry.dropped_events},
    }


def write_chrome_trace(registry: Registry, path: str) -> None:
    """Serialise :func:`chrome_trace` to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(registry), handle)


def _format_count(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return f"{int(value)}"


def summary_table(registry: Registry) -> str:
    """Human-readable report of spans, counters, and histograms."""
    lines: List[str] = []

    if registry.spans:
        lines.append("-- spans (wall time) --")
        width = max(len(path) for path in registry.spans)
        lines.append(f"{'path':<{width}}  {'calls':>8s}  {'total':>10s}  {'mean':>10s}")
        for path in sorted(registry.spans):
            stat = registry.spans[path]
            mean_ms = 1e3 * stat.total_s / stat.calls if stat.calls else 0.0
            lines.append(
                f"{path:<{width}}  {stat.calls:>8d}  "
                f"{stat.total_s * 1e3:>8.2f}ms  {mean_ms:>8.3f}ms"
            )

    if registry.counters:
        if lines:
            lines.append("")
        lines.append("-- counters --")
        width = max(len(name) for name in registry.counters)
        for name in sorted(registry.counters):
            lines.append(f"{name:<{width}}  {_format_count(registry.counters[name]):>14s}")

    if registry.histograms:
        if lines:
            lines.append("")
        lines.append("-- histograms --")
        width = max(len(name) for name in registry.histograms)
        lines.append(
            f"{'name':<{width}}  {'count':>8s}  {'mean':>10s}  {'min':>10s}  {'max':>10s}"
        )
        for name in sorted(registry.histograms):
            hist = registry.histograms[name]
            lines.append(
                f"{name:<{width}}  {hist.count:>8d}  {hist.mean:>10.3f}  "
                f"{(hist.min if hist.count else 0.0):>10.3f}  "
                f"{(hist.max if hist.count else 0.0):>10.3f}"
            )

    if registry.trace or registry.dropped_events:
        lines.append("")
        lines.append(
            f"-- trace buffer: {len(registry.events)} events stored "
            f"(cap {MAX_TRACE_EVENTS}), {registry.dropped_events} dropped --"
        )

    return "\n".join(lines) if lines else "(telemetry registry is empty)"
