"""repro.telemetry: tracing, metrics, and codec instrumentation.

Usage::

    from repro import telemetry

    with telemetry.session(trace=True) as registry:
        codec.encode(tensor, qp=24)
        print(telemetry.summary_table(registry))
        telemetry.write_chrome_trace(registry, "trace.json")

Everything is a no-op (one thread-local lookup) until a registry is
installed with :func:`enable` or :func:`session`, so instrumented code
can stay instrumented in production.  See ``docs/TELEMETRY.md`` for
the stable metric-name contract.
"""

from repro.telemetry.codecstats import (
    BIT_CLASSES,
    DECODE_STAGES,
    DecodeStats,
    EncodeStats,
)
from repro.telemetry.core import (
    MAX_TRACE_EVENTS,
    Histogram,
    Registry,
    SpanStat,
    count,
    current,
    disable,
    enable,
    enabled,
    observe,
    session,
    span,
)
from repro.telemetry.export import (
    chrome_trace,
    summary_table,
    to_json,
    trace_tree,
    write_chrome_trace,
)
from repro.telemetry.flightrecorder import (
    FlightRecorder,
    dump_bundle,
    get_recorder,
)
from repro.telemetry.metrics import (
    METRICS_SCHEMA,
    MetricsSnapshot,
    render_prometheus,
)
from repro.telemetry.propagate import (
    TraceContext,
    TracedOutcome,
    TracedTask,
    current_trace,
    merge_delta,
    mint_trace,
    snapshot_delta,
    trace_scope,
)

__all__ = [
    "BIT_CLASSES",
    "DECODE_STAGES",
    "DecodeStats",
    "EncodeStats",
    "FlightRecorder",
    "Histogram",
    "MAX_TRACE_EVENTS",
    "METRICS_SCHEMA",
    "MetricsSnapshot",
    "Registry",
    "SpanStat",
    "TraceContext",
    "TracedOutcome",
    "TracedTask",
    "chrome_trace",
    "count",
    "current",
    "current_trace",
    "disable",
    "dump_bundle",
    "enable",
    "enabled",
    "get_recorder",
    "merge_delta",
    "mint_trace",
    "observe",
    "render_prometheus",
    "session",
    "snapshot_delta",
    "span",
    "summary_table",
    "to_json",
    "trace_scope",
    "trace_tree",
    "write_chrome_trace",
]
