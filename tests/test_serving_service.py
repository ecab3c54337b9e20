"""End-to-end tests of :class:`repro.serving.service.CodecService`:
the typed-response contract, infrastructure faults, concealment and
deadlines."""

import threading
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.errors import CorruptStreamError
from repro.serving import CodecFault, CodecService, ServiceConfig
from repro.tensor.codec import CompressedTensor, TensorCodec


@pytest.fixture(scope="module")
def tensor():
    return np.random.default_rng(11).standard_normal((32, 32)).astype(np.float32)


def make_service(**overrides):
    defaults = dict(tile=32, deadline_s=10.0)
    defaults.update(overrides)
    return CodecService(ServiceConfig(**defaults))


class GateScript:
    """Fault gate that raises/sleeps per scripted call, then passes."""

    def __init__(self, *actions):
        self.actions = list(actions)
        self.calls = 0

    def __call__(self, kind):
        self.calls += 1
        if self.actions:
            action = self.actions.pop(0)
            if action is not None:
                action()


def _raise(exc):
    def inner():
        raise exc
    return inner


class TestHealthyPath:
    def test_encode_is_bit_exact_with_serial_reference(self, tensor):
        service = make_service()
        response = service.encode(tensor, qp=26.0)
        assert response.ok and not response.degraded
        assert response.rung == "turbo"
        reference = TensorCodec(tile=32).encode(tensor, qp=26.0)
        assert response.value.to_bytes() == reference.to_bytes()

    def test_decode_roundtrip(self, tensor):
        service = make_service()
        blob = service.encode(tensor, qp=26.0).value.to_bytes()
        response = service.decode(blob)
        assert response.ok and not response.degraded
        expected = TensorCodec(tile=32).decode(CompressedTensor.from_bytes(blob))
        assert np.array_equal(response.value, expected)
        assert response.report is not None and response.report.clean

    def test_slo_records_every_request(self, tensor):
        service = make_service()
        service.encode(tensor, qp=26.0)
        blob = service.encode(tensor, qp=26.0).value.to_bytes()
        service.decode(blob)
        snap = service.slo.snapshot()
        assert snap["requests"] == 3
        assert snap["outcomes"]["ok"] == 3
        assert snap["latency_ms"]["p50"] > 0.0

    def test_response_never_raises_on_bad_targets(self, tensor):
        service = make_service()
        response = service.encode(tensor, qp=26.0, bits_per_value=2.0)
        assert not response.ok
        assert response.error_type == "ValueError"
        assert service.slo.snapshot()["outcomes"]["error"] == 1


class TestInfrastructureFaults:
    """What the retry loop caught is answered once, typed, and chained."""

    @pytest.mark.parametrize("error", [
        RuntimeError("backend down"),
        BrokenExecutor("pool died"),
        OSError("disk gone"),
    ])
    def test_codec_fault_answered_without_retry(self, tensor, error):
        gate = GateScript(_raise(error), _raise(error))
        service = make_service()
        response = service.encode(tensor, qp=26.0, fault_gate=gate)
        assert not response.ok
        assert isinstance(response.error, CodecFault)
        assert response.error.__cause__ is error
        assert gate.calls == 1
        assert service.slo.snapshot()["outcomes"]["error"] == 1

    def test_codec_fault_from_inside_the_codec(self, tensor, monkeypatch):
        service = make_service()

        def broken(*args, **kwargs):
            raise RuntimeError("kernel state lost")

        monkeypatch.setattr(service._codec, "decode_with_report", broken)
        blob = TensorCodec(tile=32).encode(tensor, qp=26.0).to_bytes()
        response = service.decode(blob)
        assert isinstance(response.error, CodecFault)
        assert "kernel state lost" in str(response.error)

    def test_deadline_inside_the_codec_stays_typed(self, tensor):
        gate = GateScript(_raise(DeadlineExceeded("spent")))
        response = make_service().encode(tensor, qp=26.0, fault_gate=gate)
        assert isinstance(response.error, DeadlineExceeded)

    def test_other_exceptions_are_not_answered(self, tensor):
        # A shard's ShardDown is an Exception, neither a RuntimeError
        # nor an OSError: it must reach the shard, not become a fault.
        class Gone(Exception):
            pass

        gate = GateScript(_raise(Gone()))
        with pytest.raises(Gone):
            make_service().encode(tensor, qp=26.0, fault_gate=gate)


class TestDamagedInputs:
    def _blob(self, tensor):
        return TensorCodec(tile=32).encode(tensor, qp=26.0).to_bytes()

    def test_payload_damage_degrades_with_report(self, tensor):
        blob = bytearray(self._blob(tensor))
        blob[-30] ^= 0x40  # inside the frame-slice payload
        response = make_service().decode(bytes(blob))
        assert response.ok
        assert response.degraded
        assert response.rung == "concealed"
        assert response.concealed >= 1
        assert not response.report.clean

    def test_metadata_damage_is_typed_not_concealed(self, tensor):
        blob = bytearray(self._blob(tensor))
        blob[8] ^= 0x01  # container metadata: concealment cannot patch this
        response = make_service().decode(bytes(blob))
        assert not response.ok
        assert isinstance(response.error, CorruptStreamError)
        assert _outcome(response) == "error"

    def test_truncated_payload_degrades(self, tensor):
        blob = self._blob(tensor)
        response = make_service().decode(blob[:-20])
        assert response.ok and response.degraded
        assert response.concealed >= 1

    def test_garbage_input_is_typed(self):
        response = make_service().decode(b"definitely not a container")
        assert not response.ok
        assert isinstance(response.error, CorruptStreamError)


def _outcome(response):
    if response.ok:
        return "degraded" if response.degraded else "ok"
    if isinstance(response.error, DeadlineExceeded):
        return "deadline"
    return "error"


class TestDeadlinesAndAdmission:
    def test_tiny_deadline_times_out_cleanly(self, tensor):
        # A budget that is already spent on arrival: the assertion is
        # about the typed DeadlineExceeded path, not about how fast the
        # encoder is (a 0.5 ms budget raced it, and lost more often the
        # faster encode got).
        service = make_service()
        response = service.encode(tensor, qp=26.0, deadline_s=0.0)
        assert not response.ok
        assert isinstance(response.error, DeadlineExceeded)
        assert response.value is None
        assert service.slo.snapshot()["outcomes"]["deadline"] == 1

    def test_standalone_service_has_no_admission(self, tensor):
        # Admission belongs to the cluster shard: a burst wider than any
        # queue is answered in full, never shed.
        service = make_service()
        blob = TensorCodec(tile=32).encode(tensor, qp=26.0).to_bytes()
        responses = []

        def worker():
            responses.append(service.encode(tensor, qp=26.0))
            responses.append(service.decode(blob))

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(responses) == 24 and all(r.ok for r in responses)
        assert service.slo.snapshot()["outcomes"]["shed"] == 0

    def test_stats_document_shape(self, tensor):
        service = make_service()
        service.encode(tensor, qp=26.0)
        stats = service.stats()
        assert stats["schema"] == "llm265-metrics-v1"
        assert "counters" in stats and "recorder" in stats
        assert stats["slo"]["requests"] == 1
        assert stats["slo"]["retries"] == 0
        assert not {"broker", "ladder", "supervisor"} & set(stats)

    def test_worker_spans_land_under_the_request_trace(self, tensor):
        """Codec spans -- a slice pool's included, merged home by the
        delta protocol -- nest under the request's ``serving.*`` span,
        and their events carry its trace id."""
        import repro.telemetry as telemetry

        service = make_service()
        with telemetry.session(trace=True) as registry:
            encoded = service.encode(tensor, qp=26.0)
            assert encoded.ok
            decoded = service.decode(encoded.value.to_bytes())
            assert decoded.ok
        assert encoded.trace_id.startswith("encode-")
        assert decoded.trace_id.startswith("decode-")
        assert encoded.trace_id != decoded.trace_id
        assert registry.spans["serving.encode/tensor.encode"].calls == 1
        assert any(p.startswith("serving.encode/tensor.encode/frames.encode")
                   for p in registry.spans)
        assert registry.spans["serving.decode/tensor.decode"].calls == 1
        # Every span event recorded inside the request carries its id.
        for trace_id, root in ((encoded.trace_id, "serving.encode"),
                               (decoded.trace_id, "serving.decode")):
            tagged = [e for e in registry.events
                      if e["args"].get("trace") == trace_id]
            assert any(e["args"]["path"] == root for e in tagged)
            assert any("/" in e["args"]["path"] for e in tagged)
