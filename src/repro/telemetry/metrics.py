"""Versioned metrics snapshots and a Prometheus-style text exposition.

One snapshot type serves every consumer: ``llm265 stats --format
json`` emits it for a single CLI run, ``CodecService.stats()`` returns
it with the service's SLO attached, and :func:`render_prometheus`
turns it into the standard text exposition format so an external
scraper -- or a human with ``curl`` -- reads the same numbers the JSON
consumers do.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.telemetry import core
from repro.telemetry.core import MAX_TRACE_EVENTS, Registry
from repro.telemetry.export import to_json
from repro.telemetry.flightrecorder import get_recorder

__all__ = [
    "METRICS_SCHEMA",
    "MetricsSnapshot",
    "render_prometheus",
]

#: Schema tag carried by every snapshot; bump on shape change.
METRICS_SCHEMA = "llm265-metrics-v1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


@dataclass
class MetricsSnapshot:
    """One point-in-time capture of everything measurable.

    ``counters`` / ``histograms`` / ``spans`` mirror the telemetry
    registry (empty when telemetry is disabled); ``slo`` is attached
    by :meth:`CodecService.stats
    <repro.serving.service.CodecService.stats>` and ``None``
    elsewhere.
    """

    created_unix: float
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, dict] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)
    trace_events: int = 0
    dropped_events: int = 0
    max_trace_events: int = MAX_TRACE_EVENTS
    recorder: Optional[dict] = None
    slo: Optional[dict] = None

    @classmethod
    def capture(
        cls,
        registry: Optional[Registry] = None,
        slo: Optional[dict] = None,
    ) -> "MetricsSnapshot":
        """Snapshot ``registry`` (default: the thread's active one)."""
        if registry is None:
            registry = core.current()
        doc = to_json(registry) if registry is not None else {}
        return cls(
            created_unix=time.time(),
            counters=doc.get("counters", {}),
            histograms=doc.get("histograms", {}),
            spans=doc.get("spans", {}),
            trace_events=doc.get("trace_events", 0),
            dropped_events=doc.get("dropped_events", 0),
            recorder=get_recorder().stats(),
            slo=slo,
        )

    def to_dict(self) -> dict:
        """JSON-ready document; ``slo`` is top-level when attached."""
        doc = {
            "schema": METRICS_SCHEMA,
            "created_unix": self.created_unix,
            "counters": dict(self.counters),
            "histograms": dict(self.histograms),
            "spans": dict(self.spans),
            "trace_events": self.trace_events,
            "dropped_events": self.dropped_events,
            "max_trace_events": self.max_trace_events,
            "recorder": self.recorder,
        }
        if self.slo is not None:
            doc["slo"] = self.slo
        return doc


def _metric_name(name: str) -> str:
    return "llm265_" + _NAME_RE.sub("_", name)


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """The snapshot in the Prometheus text exposition format (0.0.4).

    Counters become ``counter`` metrics, histograms become summary-ish
    ``_count``/``_sum`` pairs plus ``_min``/``_max`` gauges, span
    aggregates become two labelled totals, and the serving SLO becomes
    labelled gauges/counters.  Metric names are the telemetry names
    with ``.`` folded to ``_`` under an ``llm265_`` prefix, so the
    stable-name contract of ``docs/OBSERVABILITY.md`` carries over.
    """
    lines = []

    def emit(name: str, value, kind: Optional[str] = None, labels: str = "") -> None:
        if kind:
            lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {value}")

    for name in sorted(snapshot.counters):
        emit(_metric_name(name), snapshot.counters[name], "counter")
    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        base = _metric_name(name)
        emit(f"{base}_count", hist["count"], "counter")
        emit(f"{base}_sum", hist["total"])
        emit(f"{base}_min", hist["min"], "gauge")
        emit(f"{base}_max", hist["max"], "gauge")
    if snapshot.spans:
        lines.append("# TYPE llm265_span_calls_total counter")
        lines.append("# TYPE llm265_span_seconds_total counter")
        for path in sorted(snapshot.spans):
            stat = snapshot.spans[path]
            label = '{path="' + path.replace('"', "'") + '"}'
            lines.append(f"llm265_span_calls_total{label} {stat['calls']}")
            lines.append(f"llm265_span_seconds_total{label} {stat['total_s']}")
    emit("llm265_trace_events", snapshot.trace_events, "gauge")
    emit("llm265_trace_events_dropped", snapshot.dropped_events, "counter")
    if snapshot.recorder:
        emit(
            "llm265_flight_recorder_events_total",
            snapshot.recorder["total_recorded"],
            "counter",
        )
        emit("llm265_flight_recorder_stored", snapshot.recorder["stored"], "gauge")
    if snapshot.slo:
        slo = snapshot.slo
        emit("llm265_slo_availability", slo["availability"], "gauge")
        lines.append("# TYPE llm265_slo_requests_total counter")
        for outcome in sorted(slo["outcomes"]):
            lines.append(
                f'llm265_slo_requests_total{{outcome="{outcome}"}} '
                f"{slo['outcomes'][outcome]}"
            )
        lines.append("# TYPE llm265_slo_latency_ms gauge")
        for quantile, value in sorted(slo["latency_ms"].items()):
            lines.append(
                f'llm265_slo_latency_ms{{quantile="{quantile}"}} {value}'
            )
    return "\n".join(lines) + "\n"

