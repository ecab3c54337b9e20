"""Concealment soak for :class:`~repro.serving.service.CodecService`.

:func:`run_chaos` drives a seeded storm of encode/decode requests
through the service while a :class:`~repro.resilience.faults.FaultInjector`
hangs and delays requests and corrupts decode payloads -- then asserts
the typed-response contract (:func:`repro.harness.check_response`,
with :data:`TYPED_ERRORS` as the vocabulary) on **every** response.

A violation is a **silent corruption** or an untyped failure -- the
outcomes the service exists to make impossible -- and fails the run
(and the CI gate).  Byte corruption lands only in the frame-slice
region of the container, so the designed recovery path (concealment,
a ``degraded`` answer with a report) is exercised rather than
bypassed; container metadata and the stream header are the regions
concealment explicitly cannot patch, and their damage paths fail
loudly (covered by the fuzz suite).  A hang is bounded only by the
request deadline.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from repro.codec.encoder import _HEADER_SIZE
from repro.harness import (
    ReferenceStore,
    ViolationLedger,
    attach_postmortem,
    availability_invariant,
    damage_payload,
    fault_gate,
    fault_injector,
    format_traffic,
    format_verdict,
    telemetry_scope,
)
from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.errors import CorruptStreamError
from repro.serving.broker import Overloaded
from repro.serving.service import (
    CodecFault,
    CodecService,
    ServeResponse,
    ServiceConfig,
)
from repro.tensor.codec import CompressedTensor

__all__ = [
    "ChaosConfig",
    "TYPED_ERRORS",
    "format_report",
    "run_chaos",
]

#: The complete vocabulary of failures a response may carry.  Anything
#: outside this tuple escaping the service is a contract violation.
TYPED_ERRORS = (
    Overloaded,
    DeadlineExceeded,
    CorruptStreamError,
    CodecFault,
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
    # Timing faults, drawn before each request's codec call.
    hang_prob: float = 0.02
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


def _payload_start(blob: bytes) -> int:
    """First corruptible byte: past container metadata + stream header."""
    compressed = CompressedTensor.from_bytes(blob)
    meta_len = compressed.nbytes - len(compressed.data)
    return meta_len + _HEADER_SIZE


@telemetry_scope()
def run_chaos(config: Optional[ChaosConfig] = None) -> dict:
    """Run the chaos soak; returns the JSON-ready report document.

    The report's ``invariant`` section is the contract verdict:
    ``silent_corruptions`` and ``untyped_errors`` must be zero and
    ``availability`` must meet the SLO for ``passed`` to be true
    (otherwise :func:`repro.harness.attach_postmortem` applies).
    """
    config = config or ChaosConfig()
    rng = np.random.default_rng(config.seed)
    tensors = [
        rng.standard_normal(
            (config.tensor_side, config.tensor_side)
        ).astype(np.float32)
        for _ in range(config.num_tensors)
    ]
    service = CodecService(
        ServiceConfig(config.tile, config.qp, config.deadline_s)
    )
    references = ReferenceStore(tensors.__getitem__, config.tile, config.qp)

    worker_faults = fault_injector(
        config.seed + 1, config,
        "hang_prob", "straggler_prob", "hang_s", "straggler_delay_s",
    )
    byte_faults = fault_injector(
        config.seed + 2, config, "bit_flip_prob", "truncate_prob"
    )
    gate = fault_gate(worker_faults)
    ledger = ViolationLedger(
        "chaos.contract_violation", ("encode", "decode", "damaged"),
        ("rung", "error_type", "trace_id"),
    )

    started = time.perf_counter()
    for index in range(config.requests):
        tensor_index = int(rng.integers(0, config.num_tensors))
        kind = "encode" if rng.random() < 0.5 else "decode"
        damaged = False
        if kind == "encode":
            response = service.encode(
                tensors[tensor_index], qp=config.qp, fault_gate=gate
            )
        else:
            clean = references.blob(tensor_index)
            blob, damaged = damage_payload(
                clean, _payload_start(clean), byte_faults
            )
            ledger.checked["damaged"] += int(damaged)
            response = service.decode(blob, fault_gate=gate)
        ledger.judge(
            response, references.expected(kind, tensor_index),
            TYPED_ERRORS, damaged, request=index, kind=kind,
        )
    elapsed_s = time.perf_counter() - started

    if config.force_violation:
        # The drill: a synthetic violation that exercises ring dump,
        # bundle write, and the CLI's exit-2 path end to end.
        ledger.record(
            "drill: forced contract violation",
            ServeResponse(ok=False, kind="drill", rung="drill"),
            request=-1, kind="drill",
        )

    slo = service.slo.snapshot()
    report = {
        "config": asdict(config),
        "elapsed_s": elapsed_s,
        "slo": slo,
        "service": service.stats(),
        "faults_injected": {
            "worker": worker_faults.injected,
            "bytes": byte_faults.injected,
        },
        "checked": ledger.checked,
        "invariant": availability_invariant(
            ledger, slo["availability"], config.availability_slo
        ),
    }
    return attach_postmortem(
        report, config, "chaos-contract-violation", checked=ledger.checked
    )


def format_report(report: dict) -> str:
    """Human-readable chaos verdict for the CLI."""
    slo = report["slo"]
    lines = [
        f"chaos: {slo['requests']} requests in {report['elapsed_s']:.1f}s "
        f"({report['faults_injected']['worker']} worker faults, "
        f"{report['faults_injected']['bytes']} byte faults)"
    ]
    lines += format_traffic(slo)
    lines += format_verdict(report)
    return "\n".join(lines)
