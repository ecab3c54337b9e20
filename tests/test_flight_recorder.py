"""Flight recorder ring, postmortem bundles, and the chaos drill."""

import json
import os

import pytest

import repro.telemetry as telemetry
from repro.telemetry.flightrecorder import (
    BUNDLE_SCHEMA,
    FlightRecorder,
    dump_bundle,
    get_recorder,
    record,
    set_recorder,
)


@pytest.fixture
def recorder():
    """A fresh process-wide recorder, restored after the test."""
    fresh = FlightRecorder(capacity=16)
    previous = set_recorder(fresh)
    try:
        yield fresh
    finally:
        set_recorder(previous)


class TestRing:
    def test_records_in_order_with_sequence(self, recorder):
        record("a", x=1)
        record("b", x=2)
        events = recorder.snapshot()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert [e["seq"] for e in events] == [1, 2]
        assert events[0]["fields"] == {"x": 1}
        assert events[0]["t_mono"] <= events[1]["t_mono"]

    def test_ring_evicts_oldest_past_capacity(self, recorder):
        for i in range(20):
            record("tick", i=i)
        events = recorder.snapshot()
        assert len(events) == 16
        assert events[0]["fields"]["i"] == 4  # 0..3 fell off
        stats = recorder.stats()
        assert stats == {
            "capacity": 16, "stored": 16,
            "total_recorded": 20, "evicted": 4,
        }

    def test_field_named_kind_does_not_collide(self, recorder):
        record("serving.request_failed", kind="encode")
        event = recorder.snapshot()[0]
        assert event["kind"] == "serving.request_failed"
        assert event["fields"]["kind"] == "encode"

    def test_clear_keeps_totals(self, recorder):
        record("x")
        recorder.clear()
        assert recorder.snapshot() == []
        assert recorder.stats()["total_recorded"] == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_default_recorder_always_installed(self):
        assert get_recorder() is not None


class TestBundle:
    def test_bundle_contents(self, recorder, tmp_path):
        record("breaker.trip", name="rung.turbo")
        with telemetry.session(trace=True) as registry:
            with telemetry.span("serving.encode"):
                telemetry.count("serving.requests")
            path = dump_bundle(
                str(tmp_path), reason="unit test!", registry=registry,
                seed=42, extra={"note": "hi"},
            )
        assert os.path.exists(path)
        bundle = json.loads(open(path).read())
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["reason"] == "unit test!"
        assert bundle["seed"] == 42
        assert bundle["extra"] == {"note": "hi"}
        assert [e["kind"] for e in bundle["ring"]] == ["breaker.trip"]
        assert bundle["ring_stats"]["total_recorded"] == 1
        assert bundle["telemetry"]["counters"]["serving.requests"] == 1
        children = bundle["trace_tree"]["children"]
        assert children[0]["name"] == "serving.encode"
        assert children[0]["calls"] == 1

    def test_bundle_without_registry(self, recorder, tmp_path):
        record("solo")
        path = dump_bundle(str(tmp_path), reason="no-telemetry")
        bundle = json.loads(open(path).read())
        assert bundle["telemetry"] is None
        assert bundle["trace_tree"] is None
        assert len(bundle["ring"]) == 1

    def test_unserializable_fields_fall_back_to_repr(self, recorder, tmp_path):
        record("odd", payload=object())
        path = dump_bundle(str(tmp_path), reason="repr")
        bundle = json.loads(open(path).read())
        assert "object object" in bundle["ring"][0]["fields"]["payload"]


class TestChaosDrill:
    def test_forced_violation_writes_postmortem(self, recorder, tmp_path):
        from repro.cluster.chaos import ChaosConfig, format_report, run_chaos

        report = run_chaos(ChaosConfig(
            requests=6, kills=0,
            force_violation=True, postmortem_dir=str(tmp_path),
        ))
        assert not report["invariant"]["passed"]
        path = report["postmortem"]
        assert path and os.path.exists(path)
        with open(path) as handle:
            bundle = json.load(handle)
        assert bundle["schema"] == BUNDLE_SCHEMA
        assert bundle["seed"] == report["config"]["seed"]
        assert bundle["extra"]["invariant"]["violations"]
        assert bundle["extra"]["slo"] == report["slo"]
        assert any(e["kind"] == "chaos.violation" for e in bundle["ring"])
        # The trace tree covers the soak's own requests, which run on
        # the driver's client threads (telemetry was opened by
        # run_chaos): every one, down to the shard's serving spans.
        roots = {node["name"]: node
                 for node in bundle["trace_tree"]["children"]}
        soak = roots["chaos.request"]
        assert soak["calls"] == 6
        assert any(child["name"].startswith("cluster.")
                   for child in soak["children"])

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        assert any(name.startswith("serving.") for name in names(soak))
        assert path in format_report(report)

    def test_clean_soak_writes_nothing(self, recorder, tmp_path):
        from repro.cluster.chaos import ChaosConfig, run_chaos

        report = run_chaos(ChaosConfig(
            requests=6, kills=0,
            postmortem_dir=str(tmp_path),
        ))
        assert report["invariant"]["passed"]
        assert report["postmortem"] is None
        assert list(tmp_path.iterdir()) == []


class TestServiceIntegration:
    def test_notable_serving_events_recorded(self, recorder):
        import numpy as np

        from repro.serving.service import CodecFault, CodecService

        def failing_gate(kind):
            raise RuntimeError("backend down")

        response = CodecService().encode(
            np.zeros((32, 32), dtype=np.float32), qp=26.0,
            fault_gate=failing_gate,
        )
        assert isinstance(response.error, CodecFault)
        failed = [e for e in recorder.snapshot()
                  if e["kind"] == "serving.request_failed"][-1]
        assert failed["fields"]["error_type"] == "CodecFault"
        assert failed["fields"]["trace"] == response.trace_id
