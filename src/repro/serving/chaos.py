"""Chaos soak + serving benchmark for :class:`~repro.serving.service.CodecService`.

:func:`run_chaos` drives a seeded storm of encode/decode requests
through the service while a :class:`~repro.resilience.faults.FaultInjector`
crashes workers, hangs attempts, raises in-flight exceptions, delays
stragglers, and corrupts decode payloads -- then asserts the serving
contract on **every** response:

- ``ok`` and not ``degraded``: the payload is *bit-exact* with a clean
  serial run, whichever ladder rung served it (encode: identical
  container bytes; decode: identical tensor).
- ``ok`` and ``degraded``: the input really was damaged, and the
  concealment report says what was patched.
- not ``ok``: the error is one of the typed serving failures.

Anything else is a **silent corruption** -- the one outcome the
serving layer exists to make impossible -- and fails the run (and the
CI gate).  Fault *sites* are chosen so the designed recovery path is
exercised rather than bypassed: worker faults fire inside the
supervised attempt (so supervision must catch them), and byte
corruption lands only in the frame-slice region of the container
(container metadata and the stream header are the regions concealment
explicitly cannot patch; their damage paths fail loudly and are
covered by the PR 2 fuzz suite).

:func:`run_serve_bench` measures the same service healthy: a clean
sequential pass for latency percentiles, then a threaded burst against
a deliberately small broker to exercise admission control and typed
shedding.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.codec.encoder import _HEADER_SIZE
from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.errors import CorruptStreamError
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.serving.broker import Overloaded
from repro.serving.service import CodecService, ServeResponse, ServiceConfig
from repro.serving.supervisor import RetriesExhausted, WorkerCrashed
from repro.tensor.codec import CompressedTensor, TensorCodec

__all__ = [
    "ChaosConfig",
    "TYPED_ERRORS",
    "format_report",
    "run_chaos",
    "run_serve_bench",
]

#: The complete vocabulary of failures a response may carry.  Anything
#: outside this tuple escaping the service is a contract violation.
TYPED_ERRORS = (
    Overloaded,
    DeadlineExceeded,
    CorruptStreamError,
    RetriesExhausted,
    ValueError,
)


@dataclass
class ChaosConfig:
    """Knobs of one chaos soak (everything seeded, everything bounded)."""

    requests: int = 500
    seed: int = 0
    tensor_side: int = 32
    num_tensors: int = 4
    tile: int = 32
    qp: float = 26.0
    deadline_s: float = 2.0
    attempt_timeout_s: float = 0.2
    # Worker-level faults, evaluated inside each supervised attempt.
    crash_prob: float = 0.04
    hang_prob: float = 0.02
    raise_prob: float = 0.04
    straggler_prob: float = 0.05
    hang_s: float = 0.3
    straggler_delay_s: float = 0.02
    # Byte-level faults applied to decode-request payloads.
    bit_flip_prob: float = 0.06
    truncate_prob: float = 0.02
    #: Availability SLO the run (and the CI gate) must meet.
    availability_slo: float = 0.99
    #: Where contract-violation postmortem bundles land; ``None``
    #: disables bundle dumps (the report still lists violations).
    postmortem_dir: Optional[str] = None
    #: Drill switch: records one synthetic contract violation so the
    #: whole postmortem path (ring dump, bundle write, exit 2) can be
    #: exercised on demand without breaking the codec.
    force_violation: bool = False


class _ReferenceStore:
    """Clean serial encodes, one per tensor.

    Every ladder rung runs the same search, so one healthy serial
    encode is the bit-exact reference for a response from any rung.
    """

    def __init__(self, tensors: List[np.ndarray], config: ChaosConfig) -> None:
        self._tensors = tensors
        self._codec = TensorCodec(tile=config.tile)
        self._qp = config.qp
        self._blobs: Dict[int, bytes] = {}
        self._decoded: Dict[int, np.ndarray] = {}

    def blob(self, tensor_index: int) -> bytes:
        if tensor_index not in self._blobs:
            compressed = self._codec.encode(
                self._tensors[tensor_index], qp=self._qp
            )
            self._blobs[tensor_index] = compressed.to_bytes()
        return self._blobs[tensor_index]

    def decoded(self, tensor_index: int) -> np.ndarray:
        """Reference reconstruction of the clean blob."""
        if tensor_index not in self._decoded:
            self._decoded[tensor_index] = self._codec.decode(
                CompressedTensor.from_bytes(self.blob(tensor_index))
            )
        return self._decoded[tensor_index]

    def payload_start(self, tensor_index: int) -> int:
        """First corruptible byte: past container metadata + stream header."""
        compressed = CompressedTensor.from_bytes(self.blob(tensor_index))
        meta_len = compressed.nbytes - len(compressed.data)
        return meta_len + _HEADER_SIZE


def _make_fault_gate(
    injector: FaultInjector, sleep: Callable[[float], None] = time.sleep
) -> Callable[[str], None]:
    """Worker-fault hook run at the top of every supervised attempt.

    All randomness is drawn *before* any sleep, so even when the
    supervisor abandons a hung attempt the injector's stream is never
    touched concurrently -- the schedule stays seeded-deterministic.
    """

    def gate(kind: str) -> None:
        if injector.worker_crashes(step=0, worker=0):
            raise WorkerCrashed(f"injected worker crash during {kind}")
        if injector.worker_raises():
            raise RuntimeError(f"injected worker exception during {kind}")
        stall = injector.worker_hang_s()
        delay = injector.straggler_delay()
        if stall:
            sleep(stall)
        if delay:
            sleep(delay)

    return gate


def _damage_payload(
    blob: bytes, payload_start: int, injector: FaultInjector
) -> Tuple[bytes, bool]:
    """Corrupt the frame-slice region of a container (maybe), seeded."""
    cfg = injector.config
    rng = injector.rng
    body = blob[payload_start:]
    if cfg.bit_flip_prob and body and rng.random() < cfg.bit_flip_prob:
        flips = int(rng.integers(1, cfg.max_flips + 1))
        injector._record("faults.bit_flips")
        return blob[:payload_start] + injector.flip_bits(body, flips), True
    if cfg.truncate_prob and len(body) > 16 and rng.random() < cfg.truncate_prob:
        cut = int(rng.integers(8, len(body)))
        injector._record("faults.truncations")
        return blob[:payload_start] + body[:cut], True
    return blob, False


def run_chaos(config: Optional[ChaosConfig] = None) -> dict:
    """Run the chaos soak; returns the JSON-ready report document.

    The report's ``invariant`` section is the contract verdict:
    ``silent_corruptions`` and ``untyped_errors`` must be zero and
    ``availability`` must meet the SLO for ``passed`` to be true.

    When the verdict fails and ``config.postmortem_dir`` is set, a
    flight-recorder postmortem bundle (ring contents, telemetry
    snapshot, trace tree, seed) is dumped and its path returned under
    ``report["postmortem"]``.
    """
    config = config or ChaosConfig()
    # Aggregate telemetry for the whole soak (reusing an already-active
    # registry, e.g. the CLI's --trace session) so the postmortem
    # bundle can include a trace tree of what led up to a violation.
    active = telemetry.current()
    scope = nullcontext(active) if active is not None else telemetry.session()
    with scope as registry:
        report = _run_chaos_instrumented(config, registry)
    return report


def _run_chaos_instrumented(config: ChaosConfig, registry) -> dict:
    rng = np.random.default_rng(config.seed)
    tensors = [
        rng.standard_normal(
            (config.tensor_side, config.tensor_side)
        ).astype(np.float32)
        for _ in range(config.num_tensors)
    ]
    service = CodecService(
        ServiceConfig(
            tile=config.tile,
            default_qp=config.qp,
            deadline_s=config.deadline_s,
            attempt_timeout_s=config.attempt_timeout_s,
            seed=config.seed,
        )
    )
    references = _ReferenceStore(tensors, config)

    worker_faults = FaultInjector(
        seed=config.seed + 1,
        config=FaultConfig(
            crash_prob=config.crash_prob,
            hang_prob=config.hang_prob,
            raise_prob=config.raise_prob,
            straggler_prob=config.straggler_prob,
            hang_s=config.hang_s,
            straggler_delay_s=config.straggler_delay_s,
        ),
    )
    byte_faults = FaultInjector(
        seed=config.seed + 2,
        config=FaultConfig(
            bit_flip_prob=config.bit_flip_prob,
            truncate_prob=config.truncate_prob,
        ),
    )
    gate = _make_fault_gate(worker_faults)

    violations: List[dict] = []
    checked = {"encode": 0, "decode": 0, "damaged": 0}

    def violation(index: int, kind: str, reason: str, response: ServeResponse):
        violations.append(
            {
                "request": index,
                "kind": kind,
                "reason": reason,
                "rung": response.rung,
                "error_type": response.error_type,
                "trace_id": response.trace_id,
            }
        )
        flightrecorder.record(
            "chaos.contract_violation",
            request=index,
            kind=kind,
            reason=reason,
            rung=response.rung,
            trace=response.trace_id,
        )

    started = time.perf_counter()
    for index in range(config.requests):
        tensor_index = int(rng.integers(0, config.num_tensors))
        kind = "encode" if rng.random() < 0.5 else "decode"
        if kind == "encode":
            checked["encode"] += 1
            response = service.encode(
                tensors[tensor_index], qp=config.qp, fault_gate=gate
            )
            _check_encode(
                response, references, tensor_index, index, violation
            )
        else:
            checked["decode"] += 1
            clean = references.blob(tensor_index)
            blob, damaged = _damage_payload(
                clean, references.payload_start(tensor_index), byte_faults
            )
            checked["damaged"] += int(damaged)
            response = service.decode(blob, fault_gate=gate)
            _check_decode(
                response, references, tensor_index, damaged, index, violation
            )
    elapsed_s = time.perf_counter() - started

    if config.force_violation:
        # The drill: a synthetic violation that exercises ring dump,
        # bundle write, and the CLI's exit-2 path end to end.
        violation(
            -1, "drill", "drill: forced contract violation",
            ServeResponse(ok=False, kind="drill", rung="drill"),
        )

    slo = service.slo.snapshot()
    silent = sum(1 for v in violations if v["reason"].startswith("silent"))
    untyped = sum(1 for v in violations if v["reason"].startswith("untyped"))
    availability = slo["availability"]
    report = {
        "config": asdict(config),
        "elapsed_s": elapsed_s,
        "slo": slo,
        "service": service.stats(),
        "faults_injected": {
            "worker": worker_faults.injected,
            "bytes": byte_faults.injected,
        },
        "checked": checked,
        "invariant": {
            "silent_corruptions": silent,
            "untyped_errors": untyped,
            "violations": violations,
            "availability": availability,
            "availability_slo": config.availability_slo,
            "passed": (
                not violations and availability >= config.availability_slo
            ),
        },
    }
    report["postmortem"] = None
    if not report["invariant"]["passed"] and config.postmortem_dir:
        report["postmortem"] = flightrecorder.dump_bundle(
            config.postmortem_dir,
            reason="chaos-contract-violation",
            registry=registry,
            seed=config.seed,
            extra={
                "checked": checked,
                "invariant": report["invariant"],
            },
        )
    return report


def _check_encode(
    response: ServeResponse,
    references: _ReferenceStore,
    tensor_index: int,
    index: int,
    violation: Callable,
) -> None:
    if response.ok:
        if response.degraded:
            violation(index, "encode", "untyped: encode marked degraded",
                      response)
            return
        if response.value.to_bytes() != references.blob(tensor_index):
            violation(
                index, "encode",
                "silent corruption: bytes differ from the serial reference",
                response,
            )
    elif not isinstance(response.error, TYPED_ERRORS):
        violation(index, "encode",
                  f"untyped error {response.error_type}", response)


def _check_decode(
    response: ServeResponse,
    references: _ReferenceStore,
    tensor_index: int,
    damaged: bool,
    index: int,
    violation: Callable,
) -> None:
    if response.ok and not response.degraded:
        if not np.array_equal(
            response.value, references.decoded(tensor_index)
        ):
            violation(index, "decode",
                      "silent corruption: tensor differs from reference",
                      response)
        elif damaged:
            # Bit-exact output from a damaged blob would mean a CRC
            # collision repaired the data -- flag it; it should never
            # happen with <= 8 flipped bits.
            violation(index, "decode",
                      "silent corruption: damaged blob decoded clean",
                      response)
    elif response.ok:  # degraded
        if not damaged:
            violation(index, "decode",
                      "untyped: clean blob concealed", response)
        elif response.report is None or response.report.clean:
            violation(index, "decode",
                      "untyped: degraded without concealment report",
                      response)
    elif not isinstance(response.error, TYPED_ERRORS):
        violation(index, "decode",
                  f"untyped error {response.error_type}", response)


# -- healthy-path benchmark ------------------------------------------------


def run_serve_bench(
    requests: int = 60,
    seed: int = 0,
    tensor_side: int = 32,
    tile: int = 32,
    qp: float = 26.0,
    burst_threads: int = 8,
    burst_per_thread: int = 6,
) -> dict:
    """Measure the service healthy: clean latency, then an overload burst.

    Phase 1 runs ``requests`` sequential encode/decode pairs for honest
    p50/p99.  Phase 2 points ``burst_threads`` threads at a service
    with a deliberately tiny broker (2 in flight, 4 queued) so
    admission control must shed -- the point is typed ``Overloaded``
    responses, never queue collapse.
    """
    rng = np.random.default_rng(seed)
    tensor = rng.standard_normal((tensor_side, tensor_side)).astype(np.float32)

    sequential = CodecService(
        ServiceConfig(tile=tile, default_qp=qp, seed=seed)
    )
    blob = None
    for _ in range(requests // 2):
        encoded = sequential.encode(tensor, qp=qp)
        if encoded.ok and blob is None:
            blob = encoded.value.to_bytes()
        if blob is not None:
            sequential.decode(blob)

    burst = CodecService(
        ServiceConfig(
            tile=tile, default_qp=qp, seed=seed,
            max_inflight=2, max_queue=4, deadline_s=5.0,
        )
    )
    burst_blob = blob or sequential.encode(tensor, qp=qp).value.to_bytes()

    def worker() -> None:
        for turn in range(burst_per_thread):
            if turn % 2:
                burst.decode(burst_blob)
            else:
                burst.encode(tensor, qp=qp)

    threads = [
        threading.Thread(target=worker, name=f"burst-{i}")
        for i in range(burst_threads)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    burst_elapsed = time.perf_counter() - started

    burst_slo = burst.slo.snapshot()
    return {
        "sequential": sequential.slo.snapshot(),
        "burst": {
            "threads": burst_threads,
            "per_thread": burst_per_thread,
            "elapsed_s": burst_elapsed,
            "slo": burst_slo,
            "broker": burst.broker.stats(),
        },
        "shed_typed": burst_slo["outcomes"]["shed"],
    }


def format_report(report: dict) -> str:
    """Human-readable chaos verdict for the CLI."""
    lines = []
    slo = report["slo"]
    inv = report["invariant"]
    lines.append(
        f"chaos: {slo['requests']} requests in {report['elapsed_s']:.1f}s "
        f"({report['faults_injected']['worker']} worker faults, "
        f"{report['faults_injected']['bytes']} byte faults)"
    )
    outcomes = slo["outcomes"]
    lines.append(
        "outcomes: "
        + " ".join(f"{name}={outcomes[name]}" for name in sorted(outcomes))
    )
    latency = slo["latency_ms"]
    lines.append(
        f"latency: p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms "
        f"max={latency['max']:.1f}ms"
    )
    lines.append(
        f"availability: {inv['availability']:.4f} "
        f"(slo {inv['availability_slo']:.2f})"
    )
    lines.append(
        f"invariant: silent_corruptions={inv['silent_corruptions']} "
        f"untyped_errors={inv['untyped_errors']} -> "
        + ("PASS" if inv["passed"] else "FAIL")
    )
    for violated in inv["violations"][:10]:
        lines.append(f"  violation: {violated}")
    if report.get("postmortem"):
        lines.append(f"postmortem bundle: {report['postmortem']}")
    return "\n".join(lines)
