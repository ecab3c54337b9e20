"""MetricsSnapshot capture and Prometheus rendering."""

import json

import repro.telemetry as telemetry
from repro.telemetry.metrics import (
    METRICS_SCHEMA,
    MetricsSnapshot,
    render_prometheus,
)


def _active_snapshot():
    with telemetry.session(trace=True) as registry:
        telemetry.count("encode.frames", 4)
        telemetry.observe("serving.latency_s", 0.02)
        with telemetry.span("tensor.encode"):
            pass
        return MetricsSnapshot.capture(registry=registry)


class TestCapture:
    def test_captures_registry_sections(self):
        snapshot = _active_snapshot()
        assert snapshot.counters["encode.frames"] == 4
        assert snapshot.histograms["serving.latency_s"]["count"] == 1
        assert snapshot.spans["tensor.encode"]["calls"] == 1
        assert snapshot.trace_events == 1
        assert snapshot.recorder is not None

    def test_capture_without_telemetry(self):
        assert telemetry.current() is None
        snapshot = MetricsSnapshot.capture()
        assert snapshot.counters == {}
        assert snapshot.slo is None

    def test_to_dict_shape(self):
        doc = _active_snapshot().to_dict()
        assert doc["schema"] == METRICS_SCHEMA
        assert {"counters", "histograms", "spans", "trace_events",
                "dropped_events", "max_trace_events", "recorder",
                "created_unix"} <= set(doc)
        # No SLO attached -> its key is absent.
        assert "slo" not in doc
        json.dumps(doc)  # must be JSON-clean as-is

    def test_serving_sections_survive_top_level(self):
        doc = MetricsSnapshot.capture(slo={"requests": 1}).to_dict()
        assert doc["slo"] == {"requests": 1}

    def test_dropped_events_and_cap_exported(self):
        with telemetry.session(trace=True) as registry:
            registry.dropped_events = 7
            snapshot = MetricsSnapshot.capture(registry=registry)
        doc = snapshot.to_dict()
        assert doc["dropped_events"] == 7
        assert doc["max_trace_events"] == telemetry.MAX_TRACE_EVENTS


class TestPrometheus:
    def test_rendering_covers_every_section(self):
        snapshot = _active_snapshot()
        snapshot.slo = {
            "availability": 0.99,
            "outcomes": {"ok": 9, "error": 1},
            "latency_ms": {"p50": 1.0, "p99": 2.0},
        }
        text = render_prometheus(snapshot)
        assert "# TYPE llm265_encode_frames counter" in text
        assert "llm265_encode_frames 4" in text
        assert "llm265_serving_latency_s_count 1" in text
        assert 'llm265_span_calls_total{path="tensor.encode"} 1' in text
        assert "llm265_slo_availability 0.99" in text
        assert 'llm265_slo_requests_total{outcome="ok"} 9' in text
        assert text.endswith("\n")

    def test_metric_names_sanitized(self):
        snapshot = MetricsSnapshot(created_unix=0.0,
                                   counters={"weird metric/name": 1})
        text = render_prometheus(snapshot)
        assert "llm265_weird_metric_name 1" in text

