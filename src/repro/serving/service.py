"""`CodecService`: one :class:`TensorCodec` call behind the typed response.

One request = one :class:`ServeResponse`, always; no library exception
escapes raw:

- ``ok`` and not ``degraded``: bit-exact with a healthy serial run.
- ``ok`` and ``degraded=True``: only from the concealment fallback for
  a damaged decode input, with the patched tiles in ``report``.
- not ``ok``: a typed error -- ``DeadlineExceeded``,
  ``CorruptStreamError`` (damage concealment cannot patch),
  ``ValueError`` (malformed request) or :class:`CodecFault`.

Nothing is retried here: behind a cluster router a ``CodecFault`` is a
shard failure, charged to the shard's health and failed over to a
replica.  Admission belongs to :class:`~repro.cluster.shard.ClusterShard`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.telemetry.metrics import MetricsSnapshot
from repro.telemetry.propagate import TraceContext, mint_trace, trace_scope
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.serving.ladder import DEFAULT_LADDER
from repro.serving.slo import SloTracker
from repro.tensor.codec import CompressedTensor, TensorCodec

__all__ = ["CodecFault", "CodecService", "ServeResponse", "ServiceConfig"]

#: Hook signature for fault injection: called before the codec call
#: with the request kind ("encode" / "decode"); may sleep (straggler /
#: hang), raise, or do nothing.
FaultGate = Callable[[str], None]

#: What the codec raises when its machinery, not the request, failed: a
#: broken slice pool (the stdlib's ``BrokenExecutor`` is a
#: ``RuntimeError``), any other ``RuntimeError``, an ``OSError``.
#: ``ValueError`` (and so ``CorruptStreamError``) is not here: bad input
#: fails identically everywhere.  ``DeadlineExceeded`` is a
#: ``TimeoutError`` and so an ``OSError``; it is answered before these.
INFRASTRUCTURE_FAULTS = (RuntimeError, OSError)


class CodecFault(RuntimeError):
    """The codec failed for a reason that is not the request's; chained
    (``__cause__``) to the original.  A router fails over on it."""


@dataclass
class ServiceConfig:
    """Operating envelope of one :class:`CodecService`."""

    tile: int = 32
    default_qp: float = 26.0
    #: Default end-to-end request budget (overridable per request).
    deadline_s: float = 2.0


@dataclass
class ServeResponse:
    """The one shape every request resolves to."""

    ok: bool
    kind: str  # "encode" | "decode"
    value: object = None  # CompressedTensor (encode) / np.ndarray (decode)
    degraded: bool = False
    error: Optional[BaseException] = None
    rung: str = ""  # the codec record that answered, or "concealed"
    concealed: int = 0  # tiles patched by concealment (decode only)
    report: Optional[ConcealmentReport] = None
    latency_s: float = 0.0
    trace_id: str = ""  # request identity; matches span events' args.trace

    @property
    def error_type(self) -> str:
        return type(self.error).__name__ if self.error is not None else ""


class CodecService:
    """Typed-response encode/decode over one :class:`TensorCodec`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.slo = SloTracker()
        self._record = DEFAULT_LADDER[0]
        self._codec = TensorCodec(
            tile=self.config.tile,
            parallel=self._record.parallel,
            encode=self._record.encode,
        )

    # -- public API ----------------------------------------------------

    def encode(
        self,
        tensor: np.ndarray,
        qp: Optional[float] = None,
        bits_per_value: Optional[float] = None,
        target_mse: Optional[float] = None,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServeResponse:
        """Compress ``tensor``; never raises, always a :class:`ServeResponse`."""
        targets = dict(qp=qp, bits_per_value=bits_per_value, target_mse=target_mse)
        if all(v is None for v in targets.values()):
            targets["qp"] = self.config.default_qp

        def work(deadline: Deadline) -> ServeResponse:
            value = self._codec.encode(tensor, deadline=deadline, **targets)
            return ServeResponse(ok=True, kind="encode", value=value)

        return self._serve("encode", work, deadline_s, fault_gate, trace_ctx)

    def decode(
        self,
        blob: bytes,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServeResponse:
        """Decompress ``blob``; damaged payloads degrade to concealment."""

        def work(deadline: Deadline) -> ServeResponse:
            try:
                compressed = CompressedTensor.from_bytes(blob, strict=True)
                tensor, report = self._codec.decode_with_report(
                    compressed, conceal=False, deadline=deadline
                )
            except CorruptStreamError:
                # Damaged input, not a sick codec: concealment is the
                # designed fallback, never a silent patch -- the
                # response is flagged degraded.  Metadata damage raises
                # again here and is answered typed.
                compressed = CompressedTensor.from_bytes(blob, strict=False)
                tensor, report = self._codec.decode_with_report(
                    compressed, conceal=True, deadline=deadline
                )
                if not report.clean:
                    return ServeResponse(
                        ok=True, kind="decode", value=tensor, degraded=True,
                        rung="concealed", concealed=report.concealed_count,
                        report=report,
                    )
            return ServeResponse(ok=True, kind="decode", value=tensor, report=report)

        return self._serve("decode", work, deadline_s, fault_gate, trace_ctx)

    def stats(self) -> dict:
        """The calling thread's telemetry registry (empty sections when
        telemetry is disabled) plus the SLO, as one versioned
        :class:`MetricsSnapshot` document."""
        return MetricsSnapshot.capture(slo=self.slo.snapshot()).to_dict()

    # -- request machinery ---------------------------------------------

    def _serve(
        self,
        kind: str,
        work: Callable[[Deadline], ServeResponse],
        deadline_s: Optional[float],
        fault_gate: Optional[FaultGate],
        trace_ctx: Optional[TraceContext],
    ) -> ServeResponse:
        start_time = time.perf_counter()
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else self.config.deadline_s,
            label=kind,
        )
        # One trace context per request.  A caller that already owns the
        # request identity (the cluster router, one hop up) passes its
        # context in, so codec spans land under the *router's* trace id
        # instead of minting a second, unlinked one.
        ctx = trace_ctx or mint_trace(kind, budget_s=deadline.remaining())
        with trace_scope(ctx), telemetry.span(f"serving.{kind}"):
            try:
                deadline.check(f"serving.{kind}")
                if fault_gate is not None:
                    fault_gate(kind)
                response = work(deadline)
                response.rung = response.rung or self._record.name
            except (DeadlineExceeded, ValueError) as exc:
                # Budget gone, or a request that fails identically
                # everywhere (malformed targets, metadata damage).
                response = ServeResponse(ok=False, kind=kind, error=exc)
            except INFRASTRUCTURE_FAULTS as exc:
                fault = CodecFault(f"{kind} failed: {exc!r}")
                fault.__cause__ = exc
                response = ServeResponse(ok=False, kind=kind, error=fault)
        response.latency_s = time.perf_counter() - start_time
        response.trace_id = ctx.trace_id
        if response.ok:
            outcome = "degraded" if response.degraded else "ok"
        else:
            late = isinstance(response.error, DeadlineExceeded)
            outcome = "deadline" if late else "error"
        if outcome != "ok":
            flightrecorder.record(
                "serving.request_" + ("degraded" if response.ok else "failed"),
                kind=kind, outcome=outcome, error_type=response.error_type,
                rung=response.rung, trace=ctx.trace_id,
                latency_ms=round(1e3 * response.latency_s, 3),
            )
        self.slo.record(outcome, response.latency_s, concealed=response.concealed)
        return response
