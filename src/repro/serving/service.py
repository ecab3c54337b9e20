"""`CodecService`: the supervised request path around the tensor codec.

One request = one :class:`ServeResponse`, always.  The service never
lets a library exception, a crashed worker, or a hung attempt escape
to the caller raw; every path funnels into the response contract the
chaos harness asserts:

- ``ok`` and not ``degraded``: the payload is bit-exact with what a
  healthy serial run at the same ladder rung would have produced.
- ``ok`` and ``degraded=True``: a reduced-fidelity answer, produced
  only by the explicit concealment fallback for damaged decode inputs
  (with the patched tiles enumerated in ``report``).
- not ``ok``: a *typed* error -- :class:`~repro.serving.broker.Overloaded`
  (shed at admission), :class:`~repro.resilience.errors.DeadlineExceeded`
  (budget expired), :class:`~repro.resilience.errors.CorruptStreamError`
  (input damaged beyond concealment), or
  :class:`~repro.serving.supervisor.RetriesExhausted` (infrastructure
  fault outlasted supervision).

Request flow: broker admission (bounded, typed shedding) -> ladder
rung selection (per-rung circuit breakers) -> supervised
execution (bounded attempt timeouts, seeded-backoff retries, child
deadlines so abandoned attempts self-cancel) -> on persistent failure,
step down the ladder; for damaged decodes, fall through to
concealment.  Every outcome lands in the SLO tracker.  Behind a
cluster router (``attempt_timeout_s=None``) attempts run inline on the
router's dispatch thread, the one hand-off the router abandons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.telemetry.metrics import (
    MetricsSnapshot,
    PeriodicSnapshotter,
    render_prometheus,
)
from repro.telemetry.propagate import TraceContext, mint_trace, trace_scope
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.serving.broker import Overloaded, RequestBroker
from repro.serving.ladder import DegradationLadder, Rung
from repro.serving.slo import SloTracker
from repro.serving.supervisor import RetriesExhausted, Supervisor
from repro.tensor.codec import CompressedTensor, TensorCodec

__all__ = ["CodecService", "ServeResponse", "ServiceConfig"]

#: Hook signature for fault injection: called at the top of every
#: supervised attempt with the request kind ("encode" / "decode"); may
#: sleep (straggler/hang), raise (crash/exception), or do nothing.
FaultGate = Callable[[str], None]


@dataclass
class ServiceConfig:
    """Operating envelope of one :class:`CodecService`."""

    tile: int = 32
    default_qp: float = 26.0
    #: Default end-to-end request budget (overridable per request).
    deadline_s: float = 2.0
    #: Supervision bound on a single attempt; a hang is declared after
    #: this long and the attempt abandoned (its child deadline reaps
    #: it).  Must comfortably exceed one honest encode of your tensors.
    #: ``None`` runs attempts inline: the caller owns the clock.
    attempt_timeout_s: Optional[float] = 0.25
    max_inflight: int = 2
    max_queue: int = 8
    #: Seeds supervision backoff jitter (reproducible soak schedules).
    seed: int = 0
    #: When set, a request that fails non-retryably (every retry and
    #: ladder rung exhausted) dumps a flight-recorder postmortem bundle
    #: into this directory (see ``docs/OBSERVABILITY.md``).
    postmortem_dir: Optional[str] = None


@dataclass
class ServeResponse:
    """The one shape every request resolves to."""

    ok: bool
    kind: str  # "encode" | "decode"
    value: object = None  # CompressedTensor (encode) / np.ndarray (decode)
    degraded: bool = False
    error: Optional[BaseException] = None
    rung: str = ""
    retries: int = 0  # extra attempts beyond the first, across rungs
    ladder_steps: int = 0  # rungs stepped down after the starting one
    concealed: int = 0  # tiles patched by concealment (decode only)
    report: Optional[ConcealmentReport] = None
    latency_s: float = 0.0
    trace_id: str = ""  # request identity; matches span events' args.trace

    @property
    def error_type(self) -> str:
        return type(self.error).__name__ if self.error is not None else ""

    def summary(self) -> str:
        if self.ok:
            flag = " DEGRADED" if self.degraded else ""
            return (
                f"{self.kind} ok rung={self.rung}{flag} "
                f"retries={self.retries} {1e3 * self.latency_s:.1f}ms"
            )
        return (
            f"{self.kind} {self.error_type}: {self.error} "
            f"({1e3 * self.latency_s:.1f}ms)"
        )


class CodecService:
    """Fault-tolerant encode/decode service over :class:`TensorCodec`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.broker = RequestBroker(cfg.max_inflight, cfg.max_queue)
        self.slo = SloTracker()
        # Both at their defaults: 3 retries, 8 threads to wait on (a hung
        # attempt parks one for its whole stall), and per-rung breakers
        # that trip after 3 failures for 1 s.
        self.supervisor = Supervisor(seed=cfg.seed)
        self.ladder = DegradationLadder()
        self._codecs = {
            rung.name: TensorCodec(
                tile=cfg.tile,
                parallel=rung.parallel,
                encode=rung.encode,
            )
            for rung in self.ladder.rungs
        }
        # Concealment of damaged inputs runs serially: the strict
        # attempt has already fed these bytes to the decoder once.
        self._conceal_codec = TensorCodec(tile=cfg.tile)
        #: Path of the most recent postmortem bundle, if any was dumped.
        self.last_postmortem: Optional[str] = None

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

        def attempt_factory(rung: Rung):
            codec = self._codecs[rung.name]

            def work(attempt_deadline: Optional[Deadline]):
                if fault_gate is not None:
                    fault_gate("encode")
                return codec.encode(tensor, deadline=attempt_deadline, **targets)

            return work

        return self._serve("encode", attempt_factory, deadline_s,
                           trace_ctx=trace_ctx)

    def decode(
        self,
        blob: bytes,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServeResponse:
        """Decompress ``blob``; damaged payloads degrade to concealment."""

        def attempt_factory(rung: Rung):
            codec = self._codecs[rung.name]

            def work(attempt_deadline: Optional[Deadline]):
                if fault_gate is not None:
                    fault_gate("decode")
                compressed = CompressedTensor.from_bytes(blob, strict=True)
                tensor, report = codec.decode_with_report(
                    compressed, conceal=False, deadline=attempt_deadline
                )
                return tensor, report

            return work

        def conceal_fallback(attempt_deadline: Optional[Deadline]):
            if fault_gate is not None:
                fault_gate("decode")
            compressed = CompressedTensor.from_bytes(blob, strict=False)
            return self._conceal_codec.decode_with_report(
                compressed, conceal=True, deadline=attempt_deadline
            )

        return self._serve(
            "decode", attempt_factory, deadline_s, conceal_fallback,
            trace_ctx=trace_ctx,
        )

    def snapshot(self) -> MetricsSnapshot:
        """Versioned :class:`MetricsSnapshot` of the whole service.

        Includes the calling thread's telemetry registry (empty
        sections when telemetry is disabled) plus the SLO, broker,
        ladder, and supervisor components.
        """
        return MetricsSnapshot.capture(
            slo=self.slo.snapshot(),
            broker=self.broker.stats(),
            ladder=self.ladder.stats(),
            supervisor=self.supervisor.stats(),
        )

    def stats(self) -> dict:
        """Service-wide SLO + component introspection (JSON-ready)."""
        return self.snapshot().to_dict()

    def metrics_text(self) -> str:
        """The service snapshot in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())

    def start_snapshotter(
        self, path: str, interval_s: float = 5.0, render: str = "json"
    ) -> PeriodicSnapshotter:
        """Start (and return) a periodic metrics snapshotter for this
        service; the caller owns ``stop()``."""
        return PeriodicSnapshotter(
            self.snapshot, path, interval_s=interval_s, render=render
        ).start()

    # -- request machinery ---------------------------------------------

    def _serve(
        self,
        kind: str,
        attempt_factory: Callable[[Rung], Callable],
        deadline_s: Optional[float],
        conceal_fallback: Optional[Callable] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServeResponse:
        start_time = time.perf_counter()
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else self.config.deadline_s,
            label=kind,
        )
        # One trace context per request: everything this request does --
        # broker wait, every supervised attempt, worker-side encode and
        # decode spans shipped back as deltas -- carries this trace_id.
        # A caller that already owns the request identity (the cluster
        # router, one hop up) passes its context in, so shard-side
        # spans land under the *router's* trace id instead of minting a
        # second, unlinked one.
        ctx = trace_ctx or mint_trace(kind, budget_s=deadline.remaining())
        with trace_scope(ctx), telemetry.span(f"serving.{kind}"):
            try:
                self.broker.acquire(deadline)
            except Overloaded as exc:
                return self._finish(
                    ServeResponse(ok=False, kind=kind, error=exc),
                    start_time, ctx.trace_id,
                )
            except DeadlineExceeded as exc:
                return self._finish(
                    ServeResponse(ok=False, kind=kind, error=exc),
                    start_time, ctx.trace_id,
                )
            try:
                response = self._execute(
                    kind, attempt_factory, deadline, conceal_fallback
                )
            finally:
                self.broker.release()
        return self._finish(response, start_time, ctx.trace_id)

    def _execute(
        self,
        kind: str,
        attempt_factory: Callable[[Rung], Callable],
        deadline: Deadline,
        conceal_fallback: Optional[Callable],
    ) -> ServeResponse:
        cfg = self.config
        index = 0
        retries = 0
        last_error: Optional[BaseException] = None
        while True:
            index, rung = self.ladder.select(index)
            work = attempt_factory(rung)
            try:
                value, attempts = self.supervisor.run(
                    work, cfg.attempt_timeout_s, deadline
                )
                retries += attempts - 1
                self.ladder.record(index, True)
                return self._success(kind, rung, value, retries, index)
            except DeadlineExceeded as exc:
                # Budget gone: no rung can help.  Not a backend failure,
                # so the breaker is left alone.
                return ServeResponse(
                    ok=False, kind=kind, error=exc, rung=rung.name,
                    retries=retries, ladder_steps=index,
                )
            except RetriesExhausted as exc:
                retries += exc.attempts - 1
                last_error = exc.last_error or exc
                self.ladder.record(index, False)
                telemetry.count("serving.rung_failures")
                flightrecorder.record(
                    "serving.rung_failure",
                    kind=kind,
                    rung=rung.name,
                    attempts=exc.attempts,
                    last_error=repr(exc.last_error),
                )
                if index + 1 < len(self.ladder):
                    index += 1
                    continue
                # Non-retryable: the fault outlasted every retry on
                # every rung.  Leave the evidence behind.
                self._postmortem(kind, exc)
                return ServeResponse(
                    ok=False, kind=kind, error=exc, rung=rung.name,
                    retries=retries, ladder_steps=index,
                )
            except CorruptStreamError as exc:
                # Damaged input, not a sick backend: concealment is the
                # designed fallback (decode only), never a silent patch
                # -- the response is flagged degraded.
                self.ladder.record(index, True)
                if conceal_fallback is None:
                    return ServeResponse(
                        ok=False, kind=kind, error=exc, rung=rung.name,
                        retries=retries, ladder_steps=index,
                    )
                return self._conceal(
                    kind, rung, conceal_fallback, deadline, retries, index
                )
            except ValueError as exc:
                # Malformed request (bad targets, wrong dtype): typed,
                # immediate, no retry -- it fails identically every time.
                self.ladder.record(index, True)
                return ServeResponse(
                    ok=False, kind=kind, error=exc, rung=rung.name,
                    retries=retries, ladder_steps=index,
                )

    def _conceal(
        self,
        kind: str,
        rung: Rung,
        conceal_fallback: Callable,
        deadline: Deadline,
        retries: int,
        ladder_steps: int,
    ) -> ServeResponse:
        telemetry.count("serving.conceal_fallbacks")
        try:
            value, attempts = self.supervisor.run(
                conceal_fallback, self.config.attempt_timeout_s, deadline
            )
        except (CorruptStreamError, DeadlineExceeded, RetriesExhausted) as exc:
            # Metadata damage (nothing to conceal) or budget/fault
            # exhaustion: surface the typed failure.
            return ServeResponse(
                ok=False, kind=kind, error=exc, rung="concealed",
                retries=retries, ladder_steps=ladder_steps,
            )
        tensor, report = value
        degraded = not report.clean
        response = ServeResponse(
            ok=True,
            kind=kind,
            value=tensor,
            degraded=degraded,
            rung="concealed" if degraded else rung.name,
            retries=retries + attempts - 1,
            ladder_steps=ladder_steps,
            concealed=report.concealed_count,
            report=report,
        )
        if degraded:
            telemetry.count("serving.degraded_responses")
        return response

    def _success(
        self, kind: str, rung: Rung, value, retries: int, ladder_steps: int
    ) -> ServeResponse:
        report: Optional[ConcealmentReport] = None
        if kind == "decode":
            value, report = value
        return ServeResponse(
            ok=True,
            kind=kind,
            value=value,
            rung=rung.name,
            retries=retries,
            ladder_steps=ladder_steps,
            report=report,
        )

    def _postmortem(self, kind: str, error: BaseException) -> None:
        """Dump a flight-recorder bundle for a non-retryable failure."""
        if self.config.postmortem_dir is None:
            return
        try:
            self.last_postmortem = flightrecorder.dump_bundle(
                self.config.postmortem_dir,
                reason=f"{kind}-retries-exhausted",
                seed=self.config.seed,
                extra={"error": repr(error)},
            )
            telemetry.count("serving.postmortems")
        except OSError:
            # A failing disk must not turn a typed response into a raise.
            telemetry.count("serving.postmortem_write_failures")

    def _finish(
        self, response: ServeResponse, start_time: float, trace_id: str = ""
    ) -> ServeResponse:
        response.latency_s = time.perf_counter() - start_time
        response.trace_id = trace_id
        if response.ok:
            outcome = "degraded" if response.degraded else "ok"
        elif isinstance(response.error, Overloaded):
            outcome = "shed"
        elif isinstance(response.error, DeadlineExceeded):
            outcome = "deadline"
        else:
            outcome = "error"
        if not response.ok or response.degraded:
            flightrecorder.record(
                "serving.request_" + ("degraded" if response.ok else "failed"),
                kind=response.kind,
                outcome=outcome,
                error_type=response.error_type,
                rung=response.rung,
                trace=trace_id,
                latency_ms=round(1e3 * response.latency_s, 3),
            )
        self.slo.record(
            outcome,
            response.latency_s,
            retries=response.retries,
            ladder_steps=response.ladder_steps,
            concealed=response.concealed,
        )
        return response
