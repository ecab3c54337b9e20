"""Tests for the repro.telemetry core: spans, counters, exact bit ledgers."""

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, encode_frames
from repro.codec.reference import ReferenceEncoder
from repro.models.synthetic_weights import weight_like
from repro.tensor.precision import quantize_to_uint8


@pytest.fixture()
def frame():
    return quantize_to_uint8(weight_like(64, 64, seed=11))[0]


class TestCore:
    def test_disabled_by_default(self):
        assert telemetry.current() is None
        assert not telemetry.enabled()

    def test_disabled_primitives_are_noops(self):
        telemetry.count("nope", 5)
        telemetry.observe("nope", 1.0)
        with telemetry.span("nope"):
            pass
        assert telemetry.current() is None

    def test_null_span_is_shared(self):
        assert telemetry.span("a") is telemetry.span("b")

    def test_session_installs_and_restores(self):
        assert telemetry.current() is None
        with telemetry.session() as registry:
            assert telemetry.current() is registry
            with telemetry.session() as inner:
                assert telemetry.current() is inner
            assert telemetry.current() is registry
        assert telemetry.current() is None

    def test_spans_nest_into_paths(self):
        with telemetry.session() as registry:
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
                with telemetry.span("inner"):
                    pass
            with telemetry.span("solo"):
                pass
        assert set(registry.spans) == {"outer", "outer/inner", "solo"}
        assert registry.spans["outer"].calls == 1
        assert registry.spans["outer/inner"].calls == 2
        assert registry.spans["outer"].total_s >= registry.spans["outer/inner"].total_s

    def test_counters_and_histograms(self):
        with telemetry.session() as registry:
            telemetry.count("c", 2)
            telemetry.count("c")
            telemetry.observe("h", 1.0)
            telemetry.observe("h", 3.0)
        assert registry.counters["c"] == 3
        hist = registry.histograms["h"]
        assert hist.count == 2
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0 and hist.max == 3.0

    def test_registry_is_thread_local(self):
        seen = {}

        def worker():
            seen["registry"] = telemetry.current()

        with telemetry.session():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["registry"] is None

    def test_reset_clears_but_keeps_registry(self):
        with telemetry.session() as registry:
            telemetry.count("c")
            with telemetry.span("s"):
                pass
            registry.reset()
            assert registry.counters == {}
            assert registry.spans == {}
            assert telemetry.current() is registry


class TestCodecInstrumentation:
    def test_disabled_encode_populates_nothing(self, frame):
        result = encode_frames([frame], EncoderConfig(qp=24))
        assert result.stats is None
        assert telemetry.current() is None

    def test_enabling_after_disabled_run_starts_empty(self, frame):
        encode_frames([frame], EncoderConfig(qp=24))  # telemetry off
        with telemetry.session() as registry:
            assert registry.counters == {}
            assert registry.spans == {}

    def test_bit_ledger_sums_exactly_to_stream_size(self, frame):
        with telemetry.session():
            result = encode_frames([frame], EncoderConfig(qp=24))
        bits = result.stats["bits"]
        assert sum(bits.values()) == 8 * len(result.data)
        assert bits["header"] == 8 * 21  # fixed header size (17 fields + CRC32)
        for element in ("sig", "level", "last", "flush"):
            assert bits[element] > 0

    def test_ledger_matches_registry_totals_for_single_encode(self, frame):
        with telemetry.session() as registry:
            result = encode_frames([frame], EncoderConfig(qp=24))
        for element, value in result.stats["bits"].items():
            assert registry.counters[f"encode.bits.{element}"] == value

    def test_counters_exact_across_roundtrip(self, frame):
        # The decoder derives its structural counts from each group's
        # leaf plan; the encoders count leaf by leaf as they write.  The
        # production intra encoder, then the reference encoder's inter
        # stream (frames that move, so inter leaves are chosen).
        moving = [frame, np.roll(frame, 2, axis=1), np.roll(frame, 3, axis=0)]
        for encode, frames in (
            (lambda f: encode_frames(f, EncoderConfig(qp=24)), [frame]),
            (
                lambda f: ReferenceEncoder(EncoderConfig(qp=24, use_inter=True)).encode(f),
                moving,
            ),
        ):
            with telemetry.session() as registry:
                result = encode(frames)
                decoded = decode_frames(result.data)
            counters = registry.counters
            assert np.array_equal(decoded[0], decode_frames(result.data)[0])
            for structural in (
                "ctu", "cu.leaf", "cu.split", "mode.intra", "mode.inter", "frames",
            ):
                assert counters.get(f"encode.{structural}") == counters.get(
                    f"decode.{structural}"
                ), structural
            assert counters["decode.cu.leaf"] > 0
        assert counters["decode.mode.inter"] > 0

    def test_qp_histogram_matches_dither(self, frame):
        with telemetry.session() as registry:
            encode_frames([frame], EncoderConfig(qp=24))
        hist = registry.histograms["encode.qp"]
        assert hist.count == registry.counters["encode.ctu"]
        assert hist.min >= 24.0 and hist.max <= 25.0

    def test_throughput_benchmark_shape_unchanged(self, frame):
        """EncodeResult stays compatible for existing callers."""
        result = encode_frames([frame], EncoderConfig(qp=24))
        assert result.bits_per_value > 0
        assert result.num_values == 64 * 64


class TestChromeTrace:
    def test_chrome_trace_export_is_valid_json(self, frame, tmp_path):
        path = tmp_path / "trace.json"
        with telemetry.session(trace=True) as registry:
            encode_frames([frame], EncoderConfig(qp=24))
            telemetry.write_chrome_trace(registry, str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans, "expected complete ('X') span events"
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "name" in event and "pid" in event and "tid" in event

    def test_trace_disabled_records_no_events(self, frame):
        with telemetry.session(trace=False) as registry:
            encode_frames([frame], EncoderConfig(qp=24))
        assert registry.events == []
        assert registry.spans  # aggregates still collected

    def test_event_cap_counts_drops(self):
        with telemetry.session(trace=True) as registry:
            registry.events = [{}] * telemetry.MAX_TRACE_EVENTS
            with telemetry.span("over"):
                pass
        assert registry.dropped_events == 1


class TestExport:
    def test_to_json_snapshot(self):
        with telemetry.session() as registry:
            telemetry.count("a.b", 4)
            telemetry.observe("h", 2.0)
            with telemetry.span("s"):
                pass
        doc = telemetry.to_json(registry)
        assert doc["counters"] == {"a.b": 4}
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["spans"]["s"]["calls"] == 1

    def test_summary_table_mentions_everything(self):
        with telemetry.session() as registry:
            telemetry.count("my.counter", 4)
            telemetry.observe("my.hist", 2.0)
            with telemetry.span("my.span"):
                pass
        table = telemetry.summary_table(registry)
        assert "my.counter" in table
        assert "my.hist" in table
        assert "my.span" in table

    def test_summary_table_empty_registry(self):
        with telemetry.session() as registry:
            pass
        assert "empty" in telemetry.summary_table(registry)
