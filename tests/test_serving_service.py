"""End-to-end tests of :class:`repro.serving.service.CodecService`:
the typed-response contract, degradation, concealment, deadlines, and
admission control."""

import threading
import time

import numpy as np
import pytest

from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.errors import CorruptStreamError
from repro.resilience.faults import RetryPolicy
from repro.serving import (
    CodecService,
    DegradationLadder,
    Overloaded,
    RetriesExhausted,
    ServiceConfig,
    WorkerCrashed,
)
from repro.tensor.codec import CompressedTensor, TensorCodec


@pytest.fixture(scope="module")
def tensor():
    return np.random.default_rng(11).standard_normal((32, 32)).astype(np.float32)


def make_service(**overrides):
    defaults = dict(tile=32, deadline_s=10.0, attempt_timeout_s=1.0)
    defaults.update(overrides)
    service = CodecService(ServiceConfig(**defaults))
    service.supervisor.retry = RetryPolicy(max_retries=2, backoff_base_s=0.001)
    return service


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
        assert response.retries == 0
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


class TestFaultRecovery:
    def test_injected_crash_recovered_by_retry(self, tensor):
        gate = GateScript(_raise(WorkerCrashed("injected")))
        service = make_service()
        response = service.encode(tensor, qp=26.0, fault_gate=gate)
        assert response.ok
        assert response.retries == 1
        assert gate.calls == 2

    def test_hang_recovered_within_bounded_time(self, tensor):
        gate = GateScript(lambda: time.sleep(1.0))
        service = make_service(attempt_timeout_s=0.15)
        started = time.perf_counter()
        response = service.encode(tensor, qp=26.0, fault_gate=gate)
        assert response.ok
        assert response.retries >= 1
        assert time.perf_counter() - started < 2.0

    def test_persistent_failure_steps_down_ladder(self, tensor):
        boom = RuntimeError("backend down")
        # Enough failures to exhaust retries on the first rung, then
        # succeed on the next one.
        gate = GateScript(*[_raise(boom)] * 3)
        service = make_service()
        response = service.encode(tensor, qp=26.0, fault_gate=gate)
        assert response.ok
        assert response.ladder_steps == 1
        assert response.rung == "serial"
        assert service.ladder.breakers[0].stats()["consecutive_failures"] == 1

    def test_input_errors_after_a_step_down_report_the_step(self, tensor):
        # Regression: the ValueError and concealment answers said
        # ladder_steps=0 although the turbo rung had failed first.
        down = [_raise(RuntimeError("backend down"))] * 3
        service = make_service()
        response = service.encode(tensor, qp=99.0, fault_gate=GateScript(*down))
        assert isinstance(response.error, ValueError)
        assert response.rung == "serial" and response.ladder_steps == 1
        assert service.slo.snapshot()["ladder_steps"] == 1

        blob = bytearray(TensorCodec(tile=32).encode(tensor, qp=26.0).to_bytes())
        blob[-30] ^= 0x40  # inside the frame-slice payload
        service = make_service()
        response = service.decode(bytes(blob), fault_gate=GateScript(*down))
        assert response.ok and response.rung == "concealed"
        assert response.ladder_steps == 1
        assert service.slo.snapshot()["ladder_steps"] == 1

    def test_total_failure_is_typed_retries_exhausted(self, tensor):
        gate = GateScript(*[_raise(RuntimeError("down"))] * 99)
        service = make_service()
        response = service.encode(tensor, qp=26.0, fault_gate=gate)
        assert not response.ok
        assert isinstance(response.error, RetriesExhausted)
        assert response.rung == "python"  # fell all the way down

    def test_breaker_trips_and_turbo_is_skipped(self, tensor):
        service = make_service()
        service.ladder = DegradationLadder(failure_threshold=1, cooldown_s=60.0)
        gate = GateScript(*[_raise(RuntimeError("down"))] * 3)
        first = service.encode(tensor, qp=26.0, fault_gate=gate)
        assert first.ok and first.rung == "serial"
        assert service.ladder.breakers[0].state == "open"
        second = service.encode(tensor, qp=26.0)  # healthy gate
        assert second.ok and second.rung == "serial"


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
    if isinstance(response.error, Overloaded):
        return "shed"
    if isinstance(response.error, DeadlineExceeded):
        return "deadline"
    return "error"


class TestDeadlinesAndAdmission:
    def test_tiny_deadline_times_out_cleanly(self, tensor):
        # A budget that is already spent at admission: the assertion is
        # about the typed DeadlineExceeded path, not about how fast the
        # encoder is (a 0.5 ms budget raced it, and lost more often the
        # faster encode got).
        service = make_service()
        response = service.encode(tensor, qp=26.0, deadline_s=0.0)
        assert not response.ok
        assert isinstance(response.error, DeadlineExceeded)
        assert response.value is None
        assert service.slo.snapshot()["outcomes"]["deadline"] == 1

    def test_saturated_service_sheds_typed(self, tensor):
        service = make_service(max_inflight=1, max_queue=0)
        service.broker.acquire()  # occupy the only slot
        try:
            response = service.encode(tensor, qp=26.0)
        finally:
            service.broker.release()
        assert not response.ok
        assert isinstance(response.error, Overloaded)
        assert service.slo.snapshot()["outcomes"]["shed"] == 1

    def test_threaded_burst_sheds_typed(self, tensor):
        # A burst wider than the broker: whatever is not admitted must
        # come back as a typed Overloaded, never an untyped error.
        service = make_service(max_inflight=2, max_queue=4)
        blob = TensorCodec(tile=32).encode(tensor, qp=26.0).to_bytes()
        responses = []

        def worker():
            for turn in range(3):
                if turn % 2:
                    responses.append(service.decode(blob))
                else:
                    responses.append(service.encode(tensor, qp=26.0))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(responses) == 6 * 3
        for response in responses:
            assert response.ok or isinstance(response.error, Overloaded)
        outcomes = service.slo.snapshot()["outcomes"]
        assert sum(outcomes.values()) == len(responses)
        assert outcomes["error"] == 0

    def test_stats_document_shape(self, tensor):
        service = make_service()
        service.encode(tensor, qp=26.0)
        stats = service.stats()
        # The serving sections survive under their PR 4 keys; the
        # document is now the llm265-metrics-v1 snapshot, which adds
        # observability sections on top.
        assert {"slo", "broker", "ladder", "supervisor"} <= set(stats)
        assert stats["schema"] == "llm265-metrics-v1"
        assert "counters" in stats and "recorder" in stats
        assert stats["slo"]["requests"] == 1
        assert stats["broker"]["admitted"] == 1

    def test_worker_spans_land_under_the_request_trace(self, tensor):
        """The tentpole acceptance check: encode work executed on
        supervised worker threads shows up in the dispatcher's registry
        as child spans of the owning request, and its span events carry
        the request's trace id."""
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
        # Worker-side codec spans, reparented under the request +
        # attempt that dispatched them.
        encode_paths = [p for p in registry.spans
                        if p.startswith("serving.encode/attempt[")]
        assert any("frames.encode" in p for p in encode_paths)
        decode_paths = [p for p in registry.spans
                        if p.startswith("serving.decode/attempt[")]
        assert any("decode" in p.split("/", 2)[-1] for p in decode_paths)
        # Every span event recorded inside the request carries its id.
        for trace_id, root in ((encoded.trace_id, "serving.encode"),
                               (decoded.trace_id, "serving.decode")):
            tagged = [e for e in registry.events
                      if e["args"].get("trace") == trace_id]
            assert any(e["args"]["path"] == root for e in tagged)
            assert any("/" in e["args"]["path"] for e in tagged), (
                "worker-side events must be tagged too")
        assert registry.counters["telemetry.worker_deltas_merged"] >= 2

    def test_stats_matches_snapshot_type(self, tensor):
        service = make_service()
        service.encode(tensor, qp=26.0)
        snapshot = service.snapshot()
        assert snapshot.slo["requests"] == 1
        assert service.stats().keys() == snapshot.to_dict().keys()
        text = service.metrics_text()
        assert 'llm265_slo_requests_total{outcome="ok"} 1' in text
        assert "llm265_slo_availability 1.0" in text
