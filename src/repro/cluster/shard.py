"""One cluster shard: admission, a :class:`CodecService`, a lifecycle.

A :class:`ClusterShard` models one shard process.  An encode or decode
passes bounded admission (beyond :data:`SHARD_MAX_INFLIGHT` slots and
:data:`SHARD_MAX_QUEUE` waiters it is shed, typed ``Overloaded``), then
the service calls its codec once on the router's dispatch thread.
Nothing in the shard retries; the lifecycle is the failure domain the
router handles:

- :meth:`kill` -- the shard is gone *now*.  New requests fail
  immediately with the typed :class:`ShardDown` (connection refused),
  requests already executing have their next fault-gate check raise it
  (the process took the work down with it), and a request that manages
  to finish after the kill is still answered :class:`ShardDown` -- a
  SIGKILLed process cannot have sent the response, and pretending
  otherwise would hide exactly the ambiguity failover must handle.
- :meth:`hang` -- requests stall before the codec call until the hang
  lifts.  From the shard's own view the stall is unbounded: only the
  router's clock bounds it -- the request deadline, the hedge, the
  per-dispatch ``ATTEMPT_TIMEOUT_S`` charge and the probe budget --
  which is the point.
- :meth:`revive` -- the "process restarted" transition.  The shard
  first runs crash-consistent recovery on its durable store (journal
  replay, torn-tail truncation -- see :mod:`repro.cluster.store`) and
  only *then* reports :attr:`alive`; a reviving shard mid-replay
  refuses requests with :class:`ShardDown` exactly like a dead one, so
  the router's health probe cannot re-admit it before its index is
  trustworthy.  Traffic returns after that probe succeeds.

:class:`ShardDown` subclasses :class:`Exception`, not ``RuntimeError``,
which the service would answer as a ``CodecFault``.

When constructed with a ``store_dir``, the shard also exposes the
durable key/value surface (:meth:`put` / :meth:`get`) over a
:class:`~repro.cluster.store.ShardStore`, outside admission;
:meth:`kill` crashes the store with the process (volatile index gone,
disk keeps only what was flushed), and :meth:`arm_kill` lets the chaos
harness schedule the kill at a precise mid-write stage
(``"journal_partial"`` et al.) to manufacture genuinely torn writes.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.telemetry import flightrecorder
from repro.telemetry.propagate import TraceContext
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.serving.broker import Overloaded, RequestBroker
from repro.serving.service import CodecService, ServeResponse, ServiceConfig
from repro.cluster.store import (
    COMPACT_STAGES,
    PUT_STAGES,
    ShardStore,
    StoreError,
)

__all__ = ["ClusterShard", "SHARD_MAX_INFLIGHT", "SHARD_MAX_QUEUE", "ShardDown"]

FaultGate = Callable[[str], None]

#: Each shard's admission envelope.  The queue is deep enough to absorb
#: open-loop bursts; the deadline, not the queue bound, is what limits
#: worst-case latency.
SHARD_MAX_INFLIGHT = 4
SHARD_MAX_QUEUE = 64


class ShardDown(Exception):
    """Typed connection-level failure: the target shard is not serving."""

    def __init__(self, shard_id: str, message: str = "") -> None:
        super().__init__(message or f"shard {shard_id} is down")
        self.shard_id = shard_id


class ClusterShard:
    """Admission and a :class:`CodecService`, with a kill/hang/revive
    lifecycle."""

    def __init__(
        self,
        shard_id: str,
        config: Optional[ServiceConfig] = None,
        store_dir: Optional[str] = None,
        store_fsync: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.service = CodecService(config)
        self.broker = RequestBroker(SHARD_MAX_INFLIGHT, SHARD_MAX_QUEUE)
        self.store: Optional[ShardStore] = (
            ShardStore(store_dir, shard_id=shard_id, fsync=store_fsync)
            if store_dir is not None
            else None
        )
        self._alive = True
        self._recovering = False
        self._hang_until = 0.0
        self._armed_kill_stage: Optional[str] = None
        self.kills = 0
        self.served = 0
        self.refused = 0
        self.recovery_hook: Optional[Callable[[], None]] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def alive(self) -> bool:
        # A reviving shard is *up* but not *serving*: its journal replay
        # has not finished, so its index cannot be trusted yet.
        return self._alive and not self._recovering

    def kill(self) -> None:
        """SIGKILL the shard: everything in flight dies with it."""
        if not self._alive:
            return
        self._alive = False
        self._armed_kill_stage = None
        if self.store is not None:
            self.store.crash()
        self.kills += 1
        flightrecorder.record("cluster.shard_killed", shard=self.shard_id)

    def arm_kill(self, stage: str) -> None:
        """Schedule :meth:`kill` to fire at the next store-write ``stage``.

        ``stage`` must be one of :data:`~repro.cluster.store.PUT_STAGES`
        or :data:`~repro.cluster.store.COMPACT_STAGES` (reached only by a
        put that compacts); the kill lands inside the next :meth:`put`
        that reaches it, which is how the chaos soak manufactures
        deterministic SIGKILL-mid-write crashes (torn journal tails
        included).
        """
        if stage not in PUT_STAGES + COMPACT_STAGES:
            raise ValueError(
                f"unknown put stage {stage!r}; expected one of "
                f"{PUT_STAGES + COMPACT_STAGES}"
            )
        self._armed_kill_stage = stage

    def hang(self, duration_s: float) -> None:
        """Wedge the shard: requests stall until ``duration_s`` elapses."""
        self._hang_until = max(
            self._hang_until, time.monotonic() + duration_s
        )
        flightrecorder.record(
            "cluster.shard_hung", shard=self.shard_id, duration_s=duration_s
        )

    def revive(self) -> None:
        """The process is back; traffic returns via the router's probe.

        Recovery runs *before* the shard reports :attr:`alive`: while
        the journal replays, requests (including health probes) are
        refused with :class:`ShardDown`, so the router cannot re-admit
        a shard whose index is still being rebuilt.
        """
        if self._alive:
            return
        self._recovering = True
        self._alive = True
        self._hang_until = 0.0
        try:
            if self.recovery_hook is not None:
                self.recovery_hook()
            if self.store is not None:
                self.store.recover()
        finally:
            self._recovering = False
        flightrecorder.record("cluster.shard_revived", shard=self.shard_id)

    # -- request path --------------------------------------------------

    def encode(
        self,
        tensor: np.ndarray,
        qp: Optional[float] = None,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServeResponse:
        serve = partial(self.service.encode, tensor, qp=qp, trace_ctx=trace_ctx)
        return self._admitted("encode", serve, deadline_s, fault_gate)

    def decode(
        self,
        blob: bytes,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> ServeResponse:
        serve = partial(self.service.decode, blob, trace_ctx=trace_ctx)
        return self._admitted("decode", serve, deadline_s, fault_gate)

    def probe(
        self, deadline_s: float, trace_ctx: Optional[TraceContext] = None
    ) -> ServeResponse:
        """One bounded synthetic request (tiny encode) for health checks."""
        tensor = np.zeros((8, 8), dtype=np.float32)
        return self.encode(
            tensor, qp=32.0, deadline_s=deadline_s, trace_ctx=trace_ctx
        )

    def _admitted(
        self,
        kind: str,
        serve: Callable[..., ServeResponse],
        deadline_s: Optional[float],
        extra_gate: Optional[FaultGate],
    ) -> ServeResponse:
        """``serve`` behind the shard's bounded admission: a request
        beyond both bounds is shed with a typed ``Overloaded``, and one
        whose budget runs out while queued answers ``DeadlineExceeded``
        without running."""

        def run(gate: Optional[FaultGate]) -> ServeResponse:
            deadline = Deadline.after(
                self.service.config.deadline_s if deadline_s is None
                else deadline_s,
                label=kind,
            )
            try:
                with self.broker.slot(deadline):
                    return serve(deadline_s=deadline.remaining(), fault_gate=gate)
            except (Overloaded, DeadlineExceeded) as exc:
                return ServeResponse(ok=False, kind=kind, error=exc)

        return self._call(kind, run, extra_gate)

    # -- durable key/value surface -------------------------------------

    def put(
        self,
        key: str,
        payload: bytes,
        version: int,
        fault_gate: Optional[FaultGate] = None,
    ) -> ServeResponse:
        """Durably store ``payload`` on this shard's :class:`ShardStore`.

        The store's write-stage gates flow through the shard's fault
        gate, so an armed kill (or a kill from another thread) lands
        mid-write with the same semantics as any other request: the
        response is :class:`ShardDown` even if the bytes made it to
        disk -- the caller cannot know, which is exactly the ambiguity
        anti-entropy resolves later.
        """
        if self.store is None:
            raise RuntimeError(f"shard {self.shard_id} has no store")
        started = time.monotonic()

        def run(gate: Optional[FaultGate]) -> ServeResponse:
            try:
                entry = self.store.put(key, payload, version, gate=gate)
            except StoreError as exc:
                return ServeResponse(
                    ok=False, kind="put", error=exc,
                    latency_s=time.monotonic() - started,
                )
            return ServeResponse(
                ok=True, kind="put", value=entry,
                latency_s=time.monotonic() - started,
            )

        return self._call("put", run, fault_gate)

    def get(
        self, key: str, fault_gate: Optional[FaultGate] = None
    ) -> ServeResponse:
        """Verified read from this shard's store (bytes, or typed error)."""
        if self.store is None:
            raise RuntimeError(f"shard {self.shard_id} has no store")
        started = time.monotonic()

        def run(gate: Optional[FaultGate]) -> ServeResponse:
            if gate is not None:
                gate("get")
            try:
                payload = self.store.get(key)
            except StoreError as exc:
                return ServeResponse(
                    ok=False, kind="get", error=exc,
                    latency_s=time.monotonic() - started,
                )
            return ServeResponse(
                ok=True, kind="get", value=payload,
                latency_s=time.monotonic() - started,
            )

        return self._call("get", run, fault_gate)

    def _call(
        self,
        kind: str,
        run: Callable[[Optional[FaultGate]], ServeResponse],
        extra_gate: Optional[FaultGate],
    ) -> ServeResponse:
        if not self.alive:
            self.refused += 1
            reason = (
                "shard is recovering" if self._recovering else ""
            )
            return ServeResponse(
                ok=False, kind=kind,
                error=ShardDown(self.shard_id, reason),
            )

        def gate(gate_kind: str) -> None:
            # Shard-level faults first (the process hosts the worker)...
            if not self._alive:
                raise ShardDown(self.shard_id, "shard died mid-request")
            if self._armed_kill_stage is not None and (
                gate_kind == self._armed_kill_stage
            ):
                # The scheduled SIGKILL: the process dies at exactly
                # this write stage, taking this request with it.
                self.kill()
                raise ShardDown(self.shard_id, "shard died mid-request")
            stall = self._hang_until - time.monotonic()
            if stall > 0:
                time.sleep(stall)
            # ...then whatever worker-level chaos the caller injects.
            if extra_gate is not None:
                extra_gate(gate_kind)

        try:
            response = run(gate)
        except ShardDown as exc:
            # The gate fired mid-request; everything in flight died.
            response = ServeResponse(ok=False, kind=kind, error=exc)
        if not self._alive and response.ok:
            # Finished after the kill: the response never left the
            # process.  Surfacing it would be resurrecting lost work.
            response = ServeResponse(
                ok=False, kind=kind,
                error=ShardDown(self.shard_id, "shard died before replying"),
            )
        if response.ok:
            self.served += 1
        return response

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        info = {
            "shard": self.shard_id,
            "alive": self._alive,
            "recovering": self._recovering,
            "kills": self.kills,
            "served": self.served,
            "refused": self.refused,
            "slo": self.service.slo.snapshot(),
            "admission": self.broker.stats(),
        }
        if self.store is not None:
            info["store"] = self.store.stats()
        return info

    def __repr__(self) -> str:
        state = "alive" if self._alive else "down"
        return f"ClusterShard({self.shard_id!r}, {state})"
