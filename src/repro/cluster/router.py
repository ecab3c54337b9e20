"""`ClusterRouter`: consistent-hash routing, replication, hedging, health.

The router is the cluster's single client-facing entry point.  One
request flows through four mechanisms, each bounded and observable:

1. **Routing.**  ``tensor_id`` hashes onto the ring
   (:mod:`repro.cluster.ring`); the first R distinct shards clockwise
   are the request's replica set.  Unhealthy shards are *not on the
   ring* (see 4), so routing never has to ask "is this target up" --
   membership is the health statement.

2. **Replication & failover.**  The primary replica is dispatched
   first.  A shard-level failure (:class:`ShardDown`, a ``CodecFault``,
   overload) fails over to the next replica *inside the same request*;
   deterministic failures (corrupt payload, malformed
   request) commit immediately -- they would fail identically
   everywhere, and retrying them against more shards is how retry
   storms start.

3. **Hedging.**  If the primary has not answered within the hedge
   delay -- the router's own observed p95 (:data:`HEDGE_QUANTILE`),
   floored and refreshed as latency moves -- a backup of the same
   request fires at the next replica, within :data:`HEDGE_BUDGET`.
   First *success* wins; at most one result is ever committed per
   request id (the commit cell is the dedupe point: a slow primary
   and its hedge can both complete, and the loser is cancelled if
   still queued, or discarded and counted if it already ran).

4. **Health.**  Every attempt outcome feeds the shard's
   :class:`~repro.cluster.health.ShardHealth` (a consecutive-failure
   breaker and a failure-rate EWMA in one object).  An unhealthy shard
   is drained from the ring (bounded churn: only its key range moves)
   and re-admitted by a bounded probe request once its cooldown is up
   -- the probe carries a short child deadline so a hung shard costs
   :data:`PROBE_TIMEOUT_S`, never a wedged probe path.

Work executes on a router-owned thread pool, the request's one hand-off
(a shard calls its codec inline on it, so the router's clock owns
hangs).  This is the cluster's one resilience layer: nothing inside a
shard retries, steps down or trips a breaker of its own.
A caller with a live telemetry registry gets every dispatch wrapped in
a :class:`~repro.telemetry.propagate.TracedTask` carrying the request's
trace context, so shard-side spans merge back under the router's trace
id (the winner's delta is merged; losers are accounted in
``telemetry.worker_deltas_lost``); otherwise the shard builds none.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.parallel.awake import keep_awake
from repro.telemetry.propagate import (
    TracedOutcome,
    TracedTask,
    count_lost_deltas,
    merge_delta,
    mint_trace,
    trace_scope,
)
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.serving.broker import Overloaded
from repro.serving.service import ServeResponse, ServiceConfig
from repro.serving.slo import SloTracker, _nearest_rank
from repro.cluster.health import ShardHealth
from repro.cluster.ring import HashRing
from repro.cluster.shard import SHARD_MAX_INFLIGHT, ClusterShard, ShardDown
from repro.cluster.store import NotFound, StoreError

__all__ = [
    "ClusterConfig",
    "ClusterResponse",
    "ClusterRouter",
    "ClusterUnavailable",
    "WriteQuorumFailed",
]

FaultGate = Callable[[str], None]

#: Failures that are the *request's* fault, not the shard's: they fail
#: identically on every replica, so the router commits them instead of
#: failing over (and they teach shard health nothing).
DETERMINISTIC_ERRORS = (CorruptStreamError, ValueError)

#: Virtual nodes per shard on the ring (smoothness / churn bound).
VNODES = 32

#: Quantile of achieved (committed) latency the backup fires at.  95 is
#: the Dean & Barroso tail-at-scale policy: firing at p95 costs ~5%
#: extra load and is what *cuts* p99 -- firing at p99 itself can only
#: improve quantiles above p99, and an estimator fed by requests the
#: hedge failed to rescue drifts up into the very tail it should beat.
HEDGE_QUANTILE = 95.0
#: Floor for the derived delay (never hedge into the median).
HEDGE_MIN_DELAY_S = 0.005
#: Delay used until enough latency samples exist for the quantile.
HEDGE_INITIAL_DELAY_S = 0.05
#: Cap on hedges as a fraction of requests, plus a burst allowance for
#: startup.  Hedging amplifies load at exactly the wrong moment: during
#: a congestion burst the quantile estimator lags, "slow" requests are
#: suddenly everywhere, and unbudgeted hedges double the offered work
#: against an already saturated cluster -- the storm then *creates* the
#: tail it was meant to cut.  The budget bounds that amplification;
#: denials are counted.
HEDGE_BUDGET = 0.1
HEDGE_BUDGET_BURST = 8

#: Committed responses between two recomputations of the derived hedge
#: delay, and how many it takes before the first.
_HEDGE_REFRESH = 32

#: Budget of one half-open probe (the child deadline a probe carries so
#: a hung shard cannot wedge the re-admission path).
PROBE_TIMEOUT_S = 0.25

#: A dispatch answering later than this is charged as a hang (the
#: router's clock; a shard calls its codec inline).  Long: in-process
#: shards share one GIL, so a healthy-but-contended attempt easily runs
#: several times its solo latency.
ATTEMPT_TIMEOUT_S = 1.0

#: What health hears of a dispatch the router stopped waiting on (in
#: flight at the deadline, or answering after :data:`ATTEMPT_TIMEOUT_S`).
_HUNG = ServeResponse(ok=False, kind="", error=DeadlineExceeded("hung"))


def _bare(work: Callable[[], ServeResponse]) -> Callable[[], TracedOutcome]:
    """``work`` with a :class:`TracedTask`'s outcome shape, no registry."""

    def run() -> TracedOutcome:
        try:
            return TracedOutcome(work(), None, None)
        except Exception as exc:
            return TracedOutcome(None, exc, None)

    return run


class ClusterUnavailable(RuntimeError):
    """Typed cluster-level rejection: no shard exists to serve the key."""


class WriteQuorumFailed(ClusterUnavailable):
    """A durable put was not acknowledged by every replica it was sent to.

    The write is **not acknowledged**: the caller must treat it as
    lost (any partial copies that did land are harmless -- a retry
    under a new version, or anti-entropy, supersedes them).
    """

    def __init__(self, key: str, acked: int, quorum: int) -> None:
        super().__init__(
            f"put {key!r} acked by {acked}/{quorum} required replicas"
        )
        self.key = key
        self.acked = acked
        self.quorum = quorum


@dataclass
class ClusterConfig:
    """Operating envelope of one :class:`ClusterRouter`."""

    shards: int = 4
    #: Replica-set size R: how many distinct shards can serve each key.
    replication: int = 2
    #: End-to-end request budget (overridable per request).
    deadline_s: float = 2.0
    # -- per-shard service envelope -----------------------------------
    tile: int = 32
    default_qp: float = 26.0
    # -- durable storage ----------------------------------------------
    #: Root directory for per-shard stores; ``None`` leaves the cluster
    #: stateless (PR 7 behaviour).  Each shard gets
    #: ``<store_root>/<shard_id>/``.
    store_root: Optional[str] = None
    #: fsync the store's journal on the ack path (tests may disable).
    store_fsync: bool = True

    def service_config(self, shard_index: int) -> ServiceConfig:
        """Every shard's service envelope (the same for each index; the
        stack benchmark passes one)."""
        return ServiceConfig(
            tile=self.tile,
            default_qp=self.default_qp,
            deadline_s=self.deadline_s,
        )


@dataclass
class ClusterResponse:
    """The one shape every cluster request resolves to."""

    ok: bool
    kind: str  # "encode" | "decode" | "put" | "get"
    request_id: int = 0
    value: object = None
    degraded: bool = False
    error: Optional[BaseException] = None
    shard: str = ""  # shard whose result was committed
    rung: str = ""  # codec record that answered, or "concealed"
    hedged: bool = False  # a backup dispatch fired
    hedge_won: bool = False  # ...and its result was the one committed
    failovers: int = 0  # replica-to-replica failover dispatches
    replicas_acked: int = 0  # durable puts: replicas that fsynced the write
    version: int = 0  # durable puts: the version this write committed as
    concealed: int = 0
    report: Optional[ConcealmentReport] = None
    latency_s: float = 0.0
    trace_id: str = ""

    @property
    def error_type(self) -> str:
        return type(self.error).__name__ if self.error is not None else ""


class _Request:
    """Per-request dispatch state; the commit cell is the dedupe point."""

    __slots__ = (
        "request_id", "kind", "ctx", "deadline", "candidates", "call",
        "listener", "lock", "event", "tried", "inflight", "futures",
        "committed", "winner_shard", "winner_hedge", "winner_delta",
        "failovers", "hedged", "dispatched", "cancelled", "last_error",
    )

    def __init__(self, request_id, kind, ctx, deadline, candidates, call):
        self.request_id = request_id
        self.kind = kind
        self.ctx = ctx
        self.deadline = deadline
        self.candidates: Tuple[str, ...] = candidates
        self.call = call
        self.listener = telemetry.current()  # None: nobody traces
        self.lock = threading.Lock()
        self.event = threading.Event()
        self.tried: set = set()
        #: Shards the router still waits on; the deadline empties it.
        self.inflight: set = set()
        self.futures: List[Future] = []
        self.committed: Optional[ServeResponse] = None
        self.winner_shard = ""
        self.winner_hedge = False
        self.winner_delta: Optional[dict] = None
        self.failovers = 0
        self.hedged = False
        self.dispatched = 0
        self.cancelled = 0
        self.last_error: Optional[BaseException] = None


class ClusterRouter:
    """N codec shards behind one hashed, replicated, hedged front door."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        shards: Optional[List[ClusterShard]] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        if shards is None:
            shards = [
                ClusterShard(
                    f"shard-{i}",
                    cfg.service_config(i),
                    store_dir=(
                        os.path.join(cfg.store_root, f"shard-{i}")
                        if cfg.store_root is not None
                        else None
                    ),
                    store_fsync=cfg.store_fsync,
                )
                for i in range(cfg.shards)
            ]
        if not shards:
            raise ValueError("need at least one shard")
        self._shards: Dict[str, ClusterShard] = {
            shard.shard_id: shard for shard in shards
        }
        self._lock = threading.Lock()
        self.ring = HashRing(vnodes=VNODES)
        self.health: Dict[str, ShardHealth] = {}
        for shard_id in self._shards:
            self.ring.add(shard_id)
            self.health[shard_id] = ShardHealth(shard_id)
        self.slo = SloTracker()
        # Every shard's admission slots plus one probe or repair each.
        self._executor = ThreadPoolExecutor(
            max_workers=max(8, cfg.shards * (SHARD_MAX_INFLIGHT + 1)),
            thread_name_prefix="cluster-io",
        )
        self._closed = False
        self._request_ids = itertools.count(1)
        # Durable-put version clock: one total order across the router,
        # so anti-entropy's (version, hash) winner rule is unambiguous.
        # Over an existing store root it resumes above every version the
        # shards recovered; restarting at 1 would acknowledge puts that
        # lose to the stored versions.
        stores = (getattr(shard, "store", None) for shard in shards)
        self._versions = itertools.count(
            1
            + max(
                (store.max_version() for store in stores if store is not None),
                default=0,
            )
        )
        self._repair_inflight = False
        # Latency reservoir feeding the derived hedge delay.
        self._latencies: deque = deque(maxlen=512)
        self._latencies_seen = 0  # ever appended: the deque's length saturates
        self._hedge_cache: Tuple[int, float] = (-1, HEDGE_INITIAL_DELAY_S)
        # Router-level counters, lock-protected so executor threads (no
        # thread-local telemetry registry) never lose an event.  They
        # are the one record of these events: nothing mirrors them into
        # a telemetry registry.
        self.counters: Dict[str, int] = {
            name: 0
            for name in (
                "requests", "hedges", "hedge_wins",
                "hedges_denied_budget", "failovers",
                "losers_cancelled", "losers_discarded",
                "duplicate_results_dropped", "probes", "probe_timeouts",
                "shard_drained", "shard_readmitted", "no_healthy_shards",
                "store_puts", "store_put_acks",
                "store_put_quorum_failures", "store_gets",
                "store_get_failovers", "store_get_misses",
                "repair_passes", "repair_copies",
            )
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop dispatching, close every shard's store; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        for shard in self._shards.values():
            store = getattr(shard, "store", None)
            if store is not None:
                store.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def shard(self, shard_id: str) -> ClusterShard:
        return self._shards[shard_id]

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._shards))

    # -- public API ----------------------------------------------------

    def encode(
        self,
        tensor: np.ndarray,
        tensor_id: str,
        qp: Optional[float] = None,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
    ) -> ClusterResponse:
        """Route one encode; never raises, always a :class:`ClusterResponse`."""

        def call(shard: ClusterShard, budget_s: float, ctx) -> ServeResponse:
            return shard.encode(
                tensor, qp=qp, deadline_s=budget_s,
                fault_gate=fault_gate, trace_ctx=ctx,
            )

        return self._route("encode", tensor_id, call, deadline_s)

    def decode(
        self,
        blob: bytes,
        tensor_id: str,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
    ) -> ClusterResponse:
        """Route one decode; replicas fan in via hedging on the same key."""

        def call(shard: ClusterShard, budget_s: float, ctx) -> ServeResponse:
            return shard.decode(
                blob, deadline_s=budget_s,
                fault_gate=fault_gate, trace_ctx=ctx,
            )

        return self._route("decode", tensor_id, call, deadline_s)

    # -- durable key/value API -----------------------------------------

    @property
    def durable(self) -> bool:
        """True when the shards carry :class:`ShardStore` backends."""
        return any(
            shard.store is not None for shard in self._shards.values()
        )

    def put(
        self,
        payload: bytes,
        tensor_id: str,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
    ) -> ClusterResponse:
        """Durably store ``payload`` on the key's replica set.

        The write fans out to every replica and is **acknowledged only
        when every one of them has journaled and fsynced it** -- an ok
        response is a durability promise the soak holds the cluster
        to.  Short of that the response is the typed
        :class:`WriteQuorumFailed` and the caller must treat the write
        as lost (partial copies are superseded by any retry).
        """
        if self._closed:
            return self._refuse("put")
        cfg = self.config
        start_time = time.perf_counter()
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else cfg.deadline_s,
            label="cluster.put",
        )
        ctx = mint_trace("cluster-put", budget_s=deadline.remaining())
        request_id = next(self._request_ids)
        version = next(self._versions)
        self._count("requests")
        self._count("store_puts")
        with trace_scope(ctx), telemetry.span("cluster.put"):
            self._maybe_probe(deadline)
            candidates = self._candidates(tensor_id)
            if not candidates:
                response = ClusterResponse(
                    ok=False, kind="put", request_id=request_id,
                    error=ClusterUnavailable("no shards configured"),
                    version=version,
                )
                return self._finish(response, start_time, ctx.trace_id)
            quorum = len(candidates)
            futures = {}
            for shard_id in candidates:
                future = self._submit(
                    self._shards[shard_id].put,
                    tensor_id, payload, version, fault_gate,
                )
                if future is None:
                    response = ClusterResponse(
                        ok=False, kind="put", request_id=request_id,
                        error=ClusterUnavailable("router closed"),
                        version=version,
                    )
                    return self._finish(response, start_time, ctx.trace_id)
                futures[shard_id] = future
            acked: List[str] = []
            last_error: Optional[BaseException] = None
            for shard_id, future in futures.items():
                try:
                    outcome = future.result(
                        timeout=max(deadline.remaining(), 1e-3)
                    )
                except Exception:  # pragma: no cover - pool shutdown race
                    outcome = ServeResponse(
                        ok=False, kind="put",
                        error=DeadlineExceeded(
                            f"put replica {shard_id} timed out"
                        ),
                    )
                self._record_store_health(shard_id, outcome)
                if outcome.ok:
                    acked.append(shard_id)
                    self._count("store_put_acks")
                else:
                    last_error = outcome.error
            if len(acked) >= quorum:
                response = ClusterResponse(
                    ok=True, kind="put", request_id=request_id,
                    value=version, shard=acked[0],
                    replicas_acked=len(acked), version=version,
                )
            else:
                self._count("store_put_quorum_failures")
                error = WriteQuorumFailed(tensor_id, len(acked), quorum)
                if last_error is not None:
                    error.__cause__ = last_error
                flightrecorder.record(
                    "cluster.put_quorum_failed",
                    key=tensor_id, acked=len(acked), quorum=quorum,
                    trace=ctx.trace_id,
                )
                response = ClusterResponse(
                    ok=False, kind="put", request_id=request_id,
                    error=error, replicas_acked=len(acked), version=version,
                )
        return self._finish(response, start_time, ctx.trace_id)

    def get(
        self,
        tensor_id: str,
        deadline_s: Optional[float] = None,
        fault_gate: Optional[FaultGate] = None,
    ) -> ClusterResponse:
        """Verified read: bit-exact acknowledged bytes or a typed error.

        Replicas are tried in ring order; a miss, quarantined payload,
        or dead shard fails over to the next.  Every served payload was
        CRC-verified by the shard's store, so a successful response is
        bit-exact by construction -- corruption surfaces as failover,
        and only as a typed error once every replica is exhausted.
        """
        if self._closed:
            return self._refuse("get")
        cfg = self.config
        start_time = time.perf_counter()
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else cfg.deadline_s,
            label="cluster.get",
        )
        ctx = mint_trace("cluster-get", budget_s=deadline.remaining())
        request_id = next(self._request_ids)
        self._count("requests")
        self._count("store_gets")
        with trace_scope(ctx), telemetry.span("cluster.get"):
            self._maybe_probe(deadline)
            candidates = self._candidates(tensor_id)
            last_error: Optional[BaseException] = None
            all_missing = bool(candidates)
            failovers = 0
            for position, shard_id in enumerate(candidates):
                if deadline.expired():
                    last_error = DeadlineExceeded(
                        "cluster.get deadline exceeded mid-failover"
                    )
                    all_missing = False
                    break
                outcome = self._shards[shard_id].get(
                    tensor_id, fault_gate=fault_gate
                )
                self._record_store_health(shard_id, outcome)
                if outcome.ok:
                    response = ClusterResponse(
                        ok=True, kind="get", request_id=request_id,
                        value=outcome.value, shard=shard_id,
                        failovers=failovers,
                    )
                    return self._finish(response, start_time, ctx.trace_id)
                last_error = outcome.error
                if not isinstance(outcome.error, NotFound):
                    all_missing = False
                if position + 1 < len(candidates):
                    failovers += 1
                    self._count("store_get_failovers")
            if all_missing:
                self._count("store_get_misses")
                last_error = NotFound(
                    tensor_id, f"key {tensor_id!r} on no replica"
                )
            response = ClusterResponse(
                ok=False, kind="get", request_id=request_id,
                error=last_error
                or ClusterUnavailable("no shards configured"),
                failovers=failovers,
            )
        return self._finish(response, start_time, ctx.trace_id)

    def run_repair(self, max_passes: int = 4):
        """Run anti-entropy until the R-way invariant holds (or passes cap)."""
        from repro.cluster.repair import repair_until_converged

        return repair_until_converged(self, max_passes=max_passes)

    # -- request machinery ---------------------------------------------

    def _route(
        self,
        kind: str,
        key: str,
        call: Callable[[ClusterShard, float, object], ServeResponse],
        deadline_s: Optional[float],
    ) -> ClusterResponse:
        if self._closed:
            return self._refuse(kind)
        # Both hand-offs of this request wake a thread: find a running
        # core (repro.parallel.awake).
        keep_awake()
        cfg = self.config
        start_time = time.perf_counter()
        deadline = Deadline.after(
            deadline_s if deadline_s is not None else cfg.deadline_s,
            label=f"cluster.{kind}",
        )
        ctx = mint_trace(f"cluster-{kind}", budget_s=deadline.remaining())
        request_id = next(self._request_ids)
        self._count("requests")
        with trace_scope(ctx), telemetry.span(f"cluster.{kind}"):
            self._maybe_probe(deadline)
            candidates = self._candidates(key)
            if not candidates:
                response = ClusterResponse(
                    ok=False, kind=kind, request_id=request_id,
                    error=ClusterUnavailable("no shards configured"),
                )
                return self._finish(response, start_time, ctx.trace_id)
            req = _Request(request_id, kind, ctx, deadline, candidates, call)
            self._dispatch(req, candidates[0], is_hedge=False)
            self._await(req)
            response = self._resolve(req)
            if req.winner_delta is not None:
                parent = telemetry.current()
                if parent is not None:
                    merge_delta(
                        parent, req.winner_delta,
                        under=parent.current_path(),
                        trace_id=ctx.trace_id,
                    )
            with req.lock:
                lost = req.dispatched - req.cancelled - (
                    1 if req.winner_delta is not None else 0
                )
            count_lost_deltas(telemetry.current(), lost)
        return self._finish(response, start_time, ctx.trace_id)

    def _await(self, req: _Request) -> None:
        """Block until commit, firing the hedge when its delay elapses."""
        if len(req.candidates) > 1:
            delay = min(self._hedge_delay(), req.deadline.remaining())
            if not req.event.wait(timeout=delay):
                self._fire_hedge(req)
        if not req.event.wait(timeout=req.deadline.remaining()):
            # Request-level budget gone with results still in flight:
            # each of those dispatches is charged now, once.
            with req.lock:
                hung, req.inflight = req.inflight, set()
            for shard_id in hung:
                self._record_health(shard_id, _HUNG)
            self._offer(
                req, "", ServeResponse(
                    ok=False, kind=req.kind,
                    error=DeadlineExceeded(
                        f"cluster.{req.kind} deadline exceeded with "
                        f"{len(req.tried)} dispatch(es) in flight"
                    ),
                ),
                delta=None, is_hedge=False,
            )

    def _fire_hedge(self, req: _Request) -> None:
        # Check and charge the budget in one critical section, or every
        # concurrent hedger passes the same check.
        with self._lock:
            budget = HEDGE_BUDGET * self.counters["requests"] + HEDGE_BUDGET_BURST
            if self.counters["hedges"] >= budget:
                self._count_locked("hedges_denied_budget")
                return
            self._count_locked("hedges")
        with req.lock:
            target = None if req.committed is not None else next(
                (sid for sid in req.candidates if sid not in req.tried), None
            )
            if target is not None:
                req.hedged = True
        if target is None:
            self._count("hedges", -1)  # nothing to hedge: hand it back
            return
        flightrecorder.record(
            "cluster.hedge_fired",
            request=req.request_id, kind=req.kind, shard=target,
            trace=req.ctx.trace_id,
        )
        self._dispatch(req, target, is_hedge=True)

    def _candidates(self, key: str) -> Tuple[str, ...]:
        cfg = self.config
        with self._lock:
            found = self.ring.replicas(key, cfg.replication)
            if found:
                return found
            # Every shard is drained: last resort is trying *somebody*
            # (the broker refuses on load; the router never refuses on
            # health alone -- a wrong guess costs one failover).
            self._count_locked("no_healthy_shards")
            flightrecorder.record("cluster.no_healthy_shards")
            return tuple(sorted(self._shards))[: cfg.replication]

    def _dispatch(self, req: _Request, shard_id: str, is_hedge: bool) -> bool:
        """Send ``req`` to ``shard_id`` (at most once per shard per request)."""
        with req.lock:
            if req.committed is not None or shard_id in req.tried:
                return False
            req.tried.add(shard_id)
            req.inflight.add(shard_id)
            req.dispatched += 1

        def work() -> ServeResponse:
            shard = self._shards[shard_id]
            return req.call(shard, req.deadline.remaining(), req.ctx)

        if req.listener is not None:
            root = f"shard[{shard_id}]" + ("/hedge" if is_hedge else "")
            task = TracedTask(
                work, ctx=req.ctx, trace=req.listener.trace,
                capture_error=True, root=root,
            )
        else:
            task = _bare(work)
        future = self._submit(self._run_dispatch, req, shard_id, task, is_hedge)
        if future is None:
            with req.lock:
                req.inflight.discard(shard_id)
                req.dispatched -= 1
            self._offer(
                req, "", ServeResponse(
                    ok=False, kind=req.kind,
                    error=ClusterUnavailable("router closed"),
                ),
                delta=None, is_hedge=is_hedge,
            )
            return False
        with req.lock:
            req.futures.append(future)
        return True

    def _run_dispatch(
        self, req: _Request, shard_id: str, task: Callable, is_hedge: bool
    ) -> None:
        started = time.monotonic()
        outcome = task()
        late = time.monotonic() - started > ATTEMPT_TIMEOUT_S
        if outcome.error is not None:
            # The shard wrapper never raises; anything here is a router
            # bug surfacing -- treat it as a shard-level failure so the
            # request still resolves typed.
            response = ServeResponse(
                ok=False, kind=req.kind,
                error=RuntimeError(f"dispatch failed: {outcome.error!r}"),
            )
        else:
            response = outcome.result
        self._on_result(req, shard_id, response, outcome.delta, is_hedge, late)

    def _on_result(
        self,
        req: _Request,
        shard_id: str,
        response: ServeResponse,
        delta: Optional[dict],
        is_hedge: bool,
        late: bool,
    ) -> None:
        with req.lock:
            # Gone from the set once the deadline charged it: its
            # answer then teaches health nothing more.
            awaited = shard_id in req.inflight
            req.inflight.discard(shard_id)
        if awaited:
            self._record_health(shard_id, _HUNG if late else response)
        if response.ok or isinstance(response.error, DETERMINISTIC_ERRORS):
            self._offer(req, shard_id, response, delta, is_hedge)
        elif isinstance(response.error, DeadlineExceeded):
            # The shard ran out of the *request's* budget; another
            # replica has no more time than this one did.
            self._offer(req, shard_id, response, delta, is_hedge)
        else:
            with req.lock:
                req.last_error = response.error
            self._failover(req, shard_id)
        with req.lock:
            exhausted = (
                req.committed is None
                and not req.inflight
                and all(sid in req.tried for sid in req.candidates)
            )
        if exhausted:
            self._offer(
                req, shard_id, ServeResponse(
                    ok=False, kind=req.kind,
                    error=req.last_error
                    or ClusterUnavailable("all replicas failed"),
                ),
                delta=None, is_hedge=is_hedge,
            )

    def _failover(self, req: _Request, failed_shard: str) -> None:
        if req.deadline.expired():
            return
        with req.lock:
            if req.committed is not None:
                return
            target = next(
                (sid for sid in req.candidates if sid not in req.tried), None
            )
        if target is None:
            return
        self._count("failovers")
        flightrecorder.record(
            "cluster.failover",
            request=req.request_id, kind=req.kind,
            failed=failed_shard, target=target, trace=req.ctx.trace_id,
        )
        with req.lock:
            req.failovers += 1
        self._dispatch(req, target, is_hedge=False)

    def _offer(
        self,
        req: _Request,
        shard_id: str,
        response: ServeResponse,
        delta: Optional[dict],
        is_hedge: bool,
    ) -> None:
        """Commit at most one result per request id (the dedupe point)."""
        with req.lock:
            if req.committed is not None:
                # A loser arrived after the commit: drop it, loudly.
                self._count("losers_discarded")
                if response.ok:
                    self._count("duplicate_results_dropped")
                flightrecorder.record(
                    "cluster.duplicate_result_dropped",
                    request=req.request_id, shard=shard_id,
                    ok=response.ok, hedge=is_hedge,
                    trace=req.ctx.trace_id,
                )
                return
            req.committed = response
            req.winner_shard = shard_id
            req.winner_hedge = is_hedge
            req.winner_delta = delta
            pending = [f for f in req.futures if not f.done()]
        # Cancel losers still queued; the ones already running are
        # discarded (and counted) when they complete.
        cancelled = sum(1 for future in pending if future.cancel())
        if cancelled:
            self._count("losers_cancelled", cancelled)
            flightrecorder.record(
                "cluster.losers_cancelled",
                request=req.request_id, cancelled=cancelled,
                trace=req.ctx.trace_id,
            )
            with req.lock:
                req.cancelled += cancelled
        if is_hedge and response.ok:
            self._count("hedge_wins")
            flightrecorder.record(
                "cluster.hedge_win",
                request=req.request_id, shard=shard_id,
                trace=req.ctx.trace_id,
            )
        req.event.set()

    def _resolve(self, req: _Request) -> ClusterResponse:
        committed = req.committed
        assert committed is not None  # _await always offers something
        return ClusterResponse(
            ok=committed.ok,
            kind=req.kind,
            request_id=req.request_id,
            value=committed.value,
            degraded=committed.degraded,
            error=committed.error,
            shard=req.winner_shard,
            rung=committed.rung,
            hedged=req.hedged,
            hedge_won=req.winner_hedge and req.hedged,
            failovers=req.failovers,
            concealed=committed.concealed,
            report=committed.report,
            trace_id=req.ctx.trace_id,
        )

    # -- health / ring maintenance -------------------------------------

    def _record_health(
        self, shard_id: str, response: ServeResponse
    ) -> None:
        """Fold one outcome into shard health."""
        with self._lock:
            health = self.health[shard_id]
            if response.ok:
                health.record(True)
            elif isinstance(response.error, DETERMINISTIC_ERRORS):
                health.record(False, infrastructure=False)
                return
            elif isinstance(response.error, (DeadlineExceeded, Overloaded)):
                # Budget expiry is usually the request's problem, but
                # it is weak evidence of slowness; overload is load, not
                # sickness: EWMA only, never the breaker.
                health.record_load_failure()
            else:
                health.record(False)
            self._sync_ring_locked(shard_id)

    def _record_store_health(
        self, shard_id: str, response: ServeResponse
    ) -> None:
        """Health accounting for the durable path.

        A typed :class:`StoreError` (miss, quarantined key) is a
        *healthy* interaction -- the shard answered correctly about
        data it does not hold; punishing it would drain shards for
        corruption that repair, not routing, fixes.  Everything else
        flows through the standard taxonomy.
        """
        if response.ok or isinstance(response.error, StoreError):
            with self._lock:
                self.health[shard_id].record(True)
                self._sync_ring_locked(shard_id)
            return
        self._record_health(shard_id, response)

    def _sync_ring_locked(self, shard_id: str) -> None:
        """Make ring membership agree with health (caller holds lock)."""
        healthy = self.health[shard_id].healthy
        if healthy and shard_id not in self.ring:
            self.ring.add(shard_id)
            self._count_locked("shard_readmitted")
            flightrecorder.record("cluster.shard_readmitted", shard=shard_id)
            self._schedule_repair_locked(shard_id)
        elif not healthy and shard_id in self.ring:
            self.ring.remove(shard_id)
            self._count_locked("shard_drained")
            flightrecorder.record("cluster.shard_drained", shard=shard_id)

    def _schedule_repair_locked(self, shard_id: str) -> None:
        """Kick anti-entropy after a re-admission (caller holds lock).

        A shard that was drained -- killed, hung, or breaker-tripped --
        re-enters the ring owning key ranges it may have missed writes
        for (or, post-crash, lost journal-tail records of).  One
        background repair pass restores the R-way invariant; the
        in-flight flag collapses a re-admission burst into one pass.
        """
        if self._closed or self._repair_inflight:
            return
        if not any(s.store is not None for s in self._shards.values()):
            return
        self._repair_inflight = True
        flightrecorder.record("cluster.repair_scheduled", shard=shard_id)
        if self._submit(self._repair_task) is None:
            self._repair_inflight = False

    def _repair_task(self) -> None:
        try:
            self.run_repair()
        except Exception:  # pragma: no cover - repair must never crash IO
            flightrecorder.record("cluster.repair_crashed")
        finally:
            with self._lock:
                self._repair_inflight = False

    def _maybe_probe(self, deadline: Optional[Deadline] = None) -> None:
        """Send one bounded probe to a drained shard whose cooldown is up."""
        with self._lock:
            target = None
            for shard_id, health in self.health.items():
                if shard_id in self.ring:
                    continue
                if health.admit() == "probe":
                    target = shard_id
                    break
        if target is None:
            return
        # The probe's budget is a short *child* of the live deadline:
        # a hung shard costs PROBE_TIMEOUT_S, never a wedged probe path
        # (counted in ``probe_timeouts`` here and in its ShardHealth).
        budget_s = PROBE_TIMEOUT_S
        if deadline is not None:
            budget_s = min(budget_s, max(deadline.remaining(), 1e-3))
        self._count("probes")
        flightrecorder.record("cluster.probe_fired", shard=target)
        ctx = mint_trace("cluster-probe", budget_s=budget_s)
        self._submit(self._run_probe, target, budget_s, ctx)

    def _run_probe(self, shard_id: str, budget_s: float, ctx) -> None:
        shard = self._shards[shard_id]
        started = time.monotonic()
        response = shard.probe(budget_s, trace_ctx=ctx)
        # An answer past the budget is a timeout, whatever it says.
        late = time.monotonic() - started > budget_s
        with self._lock:
            health = self.health[shard_id]
            if response.ok and not late:
                health.reset()
                self._sync_ring_locked(shard_id)
                return
            if late or self._probe_timed_out(response):
                health.record_probe_timeout()
                self._count_locked("probe_timeouts")
            else:
                health.record(False)
            self._sync_ring_locked(shard_id)
        flightrecorder.record(
            "cluster.probe_failed", shard=shard_id,
            error_type=response.error_type,
        )

    @staticmethod
    def _probe_timed_out(response: ServeResponse) -> bool:
        if isinstance(response.error, DeadlineExceeded):
            return True
        last = getattr(response.error, "last_error", None)
        return isinstance(last, TimeoutError)

    # -- hedging -------------------------------------------------------

    def _hedge_delay(self) -> float:
        """The backup-fire delay: a quantile of achieved latency.

        The reservoir holds end-to-end latencies of *committed* ok
        responses, so the estimator sees the distribution hedging
        actually delivers: if hedges over-fire, latency (and with it
        the derived delay) rises and they back off; if the tail grows,
        the delay follows it down-quantile and hedges re-engage.
        """
        with self._lock:
            if len(self._latencies) < _HEDGE_REFRESH:
                return HEDGE_INITIAL_DELAY_S
            # Keyed on the samples ever committed, not on the reservoir's
            # length (which stops changing once it is full), and
            # refreshed once per _HEDGE_REFRESH of them: no request
            # sorts the reservoir on its own account.
            epoch = self._latencies_seen // _HEDGE_REFRESH
            cached_at, cached = self._hedge_cache
            if cached_at == epoch:
                return cached
            samples = sorted(self._latencies)
        delay = max(HEDGE_MIN_DELAY_S, _nearest_rank(samples, HEDGE_QUANTILE))
        with self._lock:
            self._hedge_cache = (epoch, delay)
        return delay

    # -- accounting ----------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._count_locked(name, value)

    def _count_locked(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _submit(self, fn: Callable, *args) -> Optional[Future]:
        """``fn`` on the dispatch pool; None once :meth:`close` has shut it.

        A request that passed the ``_closed`` check can still find the
        pool shut; its callers then answer what :meth:`_refuse` does.
        """
        try:
            return self._executor.submit(fn, *args)
        except RuntimeError:  # cannot schedule new futures after shutdown
            return None

    def _refuse(self, kind: str) -> ClusterResponse:
        """What every request to a closed router answers."""
        error = ClusterUnavailable("router closed")
        response = ClusterResponse(ok=False, kind=kind, error=error)
        return self._finish(response, time.perf_counter(), "")

    def _finish(
        self, response: ClusterResponse, start_time: float, trace_id: str
    ) -> ClusterResponse:
        response.latency_s = time.perf_counter() - start_time
        response.trace_id = trace_id
        if response.ok and not response.degraded:
            with self._lock:
                self._latencies.append(response.latency_s)
                self._latencies_seen += 1
        if response.ok:
            outcome = "degraded" if response.degraded else "ok"
        elif isinstance(response.error, Overloaded):
            outcome = "shed"
        elif isinstance(response.error, DeadlineExceeded):
            outcome = "deadline"
        else:
            outcome = "error"
        if not response.ok:
            flightrecorder.record(
                "cluster.request_failed",
                kind=response.kind,
                outcome=outcome,
                error_type=response.error_type,
                shard=response.shard,
                trace=trace_id,
                latency_ms=round(1e3 * response.latency_s, 3),
            )
        self.slo.record(
            outcome,
            response.latency_s,
            retries=response.failovers,
            concealed=response.concealed,
        )
        return response

    def stats(self) -> dict:
        """Cluster-wide introspection document (JSON-ready)."""
        with self._lock:
            counters = dict(self.counters)
            ring_members = self.ring.shard_ids
            health = {
                shard_id: h.stats() for shard_id, h in self.health.items()
            }
        return {
            "config": {
                "shards": len(self._shards),
                "replication": self.config.replication,
                "vnodes": VNODES,
                "hedge": True,  # always on, within HEDGE_BUDGET
            },
            "slo": self.slo.snapshot(),
            "router": counters,
            "ring": {"members": list(ring_members)},
            "health": health,
            "shards": {
                shard_id: shard.stats()
                for shard_id, shard in sorted(self._shards.items())
            },
        }
