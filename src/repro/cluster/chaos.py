"""Shard-kill chaos soak for :class:`~repro.cluster.router.ClusterRouter`.

The serving-layer chaos harness (:mod:`repro.serving.chaos`) kills
*workers inside* one service; this one kills the next failure domain
up: whole shards, mid-soak, under open-loop load.  A seeded schedule
SIGKILLs and hangs shards while the traffic generator keeps firing,
and every response is checked against the cluster's typed-response
contract:

- ``ok`` and not ``degraded``: **bit-exact** with a clean serial run,
  whichever ladder rung served it (encode: identical container bytes;
  decode: identical tensor) -- replication and hedging must never
  change *what* is computed, only *where*.
- ``ok`` and ``degraded``: never legitimate here.  Cluster chaos kills
  processes but does not damage payloads, so a concealment-patched
  answer to a clean request is a contract violation.
- not ``ok``: the error is one of the typed cluster failures
  (:data:`CLUSTER_TYPED_ERRORS`).

Anything else is a silent wrong answer -- the outcome the cluster
exists to make impossible -- and fails the run (exit 2 in the CLI, and
the CI gate).  The invariant also asserts **availability**: with R >= 2
a single shard loss must not take out its key range, so the soak's
availability floor (default 0.999) holds *through* the kills, not just
between them.
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.serving.chaos import TYPED_ERRORS
from repro.tensor.codec import CompressedTensor, TensorCodec
from repro.cluster.router import (
    ClusterConfig,
    ClusterResponse,
    ClusterRouter,
    ClusterUnavailable,
)
from repro.cluster.shard import ShardDown
from repro.cluster.traffic import (
    Arrival,
    OpenLoopDriver,
    TrafficConfig,
    generate_arrivals,
)

__all__ = [
    "CLUSTER_TYPED_ERRORS",
    "ClusterChaosConfig",
    "format_cluster_report",
    "run_cluster_chaos",
]

#: The complete failure vocabulary at the cluster boundary: everything
#: a single service may answer, plus the two cluster-level failures
#: (the target shard is down; no shard exists for the key).
CLUSTER_TYPED_ERRORS = TYPED_ERRORS + (ShardDown, ClusterUnavailable)


@dataclass
class ClusterChaosConfig:
    """Knobs of one cluster chaos soak (seeded, bounded, reproducible)."""

    shards: int = 4
    replication: int = 2
    requests: int = 10000
    seed: int = 0
    qp: float = 26.0
    tile: int = 32
    deadline_s: float = 3.0
    #: Distinct tensor payloads per size class (routing keys stay
    #: diverse; payload *content* reuses a small pool so bit-exactness
    #: references stay cheap).
    tensors_per_side: int = 4
    # -- traffic ------------------------------------------------------
    #: ~50% of the measured in-process capacity (~155 rps saturated,
    #: GIL-bound): open-loop soaks must be provisioned, not saturated,
    #: or every number measured is just the overload spiral.
    base_rate_rps: float = 80.0
    burst_factor: float = 2.0
    client_threads: int = 16
    # -- shard-level chaos schedule -----------------------------------
    kills: int = 2
    #: Dead time before the killed shard "restarts"; re-admission still
    #: waits for the router's probe to succeed.
    revive_after_s: float = 1.5
    hangs: int = 1
    hang_s: float = 0.6
    # -- worker-level stragglers (exercises hedging mid-chaos) --------
    straggler_prob: float = 0.05
    straggler_delay_s: float = 0.03
    #: Availability SLO the soak (and the CI gate) must meet.
    availability_slo: float = 0.999
    postmortem_dir: Optional[str] = None
    #: Drill switch: one synthetic violation to exercise the postmortem
    #: and exit-2 paths without breaking the cluster.
    force_violation: bool = False

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(
            shards=self.shards,
            replication=self.replication,
            tile=self.tile,
            default_qp=self.qp,
            deadline_s=self.deadline_s,
            seed=self.seed,
        )

    def traffic_config(self) -> TrafficConfig:
        return TrafficConfig(
            requests=self.requests,
            base_rate_rps=self.base_rate_rps,
            burst_factor=self.burst_factor,
            seed=self.seed + 7,
        )


class _ClusterReferenceStore:
    """Clean serial encodes per (size class, pool index).

    Every ladder rung runs the same search, so one healthy serial
    encode is the bit-exact reference for a response from any rung.
    Tensor *content* is pooled (``tensors_per_side`` payloads per size)
    so references stay cheap even when the workload mints thousands of
    distinct routing keys; ``tensor_id`` hashes into the pool with a
    stable CRC so the mapping survives reordering and reruns.
    """

    def __init__(self, config: ClusterChaosConfig) -> None:
        self._config = config
        self._codec = TensorCodec(tile=config.tile)
        self._lock = threading.Lock()
        self._tensors: Dict[Tuple[int, int], np.ndarray] = {}
        self._blobs: Dict[Tuple[int, int], bytes] = {}
        self._decoded: Dict[Tuple[int, int], np.ndarray] = {}

    def pool_key(self, tensor_id: str, side: int) -> Tuple[int, int]:
        index = zlib.crc32(tensor_id.encode()) % self._config.tensors_per_side
        return (side, index)

    def prebuild(self, arrivals) -> None:
        """Materialize every payload the workload will need, up front.

        Lazy reference encodes are serial ~5-60ms jobs under the store
        lock; paying them *during* an open-loop soak steals GIL time
        from the cluster and stalls client threads, so the measured
        latency would include the harness's own warmup.
        """
        for arrival in arrivals:
            key = self.pool_key(arrival.tensor_id, arrival.side)
            self.blob(key)
            if arrival.kind == "decode":
                self.decoded(key)

    def tensor(self, key: Tuple[int, int]) -> np.ndarray:
        side, index = key
        with self._lock:
            if key not in self._tensors:
                rng = np.random.default_rng(
                    (self._config.seed, side, index)
                )
                self._tensors[key] = rng.standard_normal(
                    (side, side)
                ).astype(np.float32)
            return self._tensors[key]

    def blob(self, key: Tuple[int, int]) -> bytes:
        tensor = self.tensor(key)
        with self._lock:
            if key not in self._blobs:
                self._blobs[key] = self._codec.encode(
                    tensor, qp=self._config.qp
                ).to_bytes()
            return self._blobs[key]

    def decoded(self, key: Tuple[int, int]) -> np.ndarray:
        blob = self.blob(key)
        with self._lock:
            if key not in self._decoded:
                self._decoded[key] = self._codec.decode(
                    CompressedTensor.from_bytes(blob)
                )
            return self._decoded[key]


def _warm_router(router: ClusterRouter, references: "_ClusterReferenceStore") -> None:
    """Exercise every shard and payload shape before the clock starts.

    First contact pays one-time costs (kernel JIT per tensor shape,
    pool spin-up, lazily spawned dispatch threads) that belong to
    process startup, not to the soak being measured -- without this the
    first run's tail is dominated by whichever rare shape arrived
    first.
    """
    with references._lock:
        keys = sorted(references._tensors)
    if not keys:
        return
    sides = {side: (side, index) for side, index in keys}
    for round_index, key in enumerate(sides.values()):
        tensor = references.tensor(key)
        for shard_id in router.shard_ids:
            encoded = router.encode(
                tensor, f"__warm-{shard_id}-{round_index}"
            )
            if encoded.ok:
                router.decode(
                    encoded.value.to_bytes(),
                    f"__warm-{shard_id}-{round_index}",
                )


def _build_schedule(
    config: ClusterChaosConfig,
    injector: FaultInjector,
    shard_ids: Tuple[str, ...],
    duration_s: float,
) -> List[dict]:
    """Seeded kill/hang schedule spread across the middle of the soak.

    Kills are separated by at least the revive window plus probe slack
    so single-shard loss (the R=2 availability claim) is what gets
    tested, not correlated multi-shard loss.
    """
    rng = injector.rng
    events: List[dict] = []
    min_gap = config.revive_after_s + 0.5
    at = 0.0
    for index in range(config.kills):
        lo = duration_s * (0.15 + 0.55 * index / max(config.kills, 1))
        at = max(at + min_gap, lo + float(rng.uniform(0.0, duration_s * 0.1)))
        victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
        events.append({"at_s": at, "action": "kill", "shard": victim})
        events.append(
            {
                "at_s": at + config.revive_after_s,
                "action": "revive",
                "shard": victim,
            }
        )
    for _ in range(config.hangs):
        at_h = float(rng.uniform(duration_s * 0.1, duration_s * 0.8))
        victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
        events.append(
            {"at_s": at_h, "action": "hang", "shard": victim,
             "duration_s": config.hang_s}
        )
    events.sort(key=lambda e: e["at_s"])
    return events


def _run_schedule(
    router: ClusterRouter,
    events: List[dict],
    start: float,
    stop: threading.Event,
    injector: FaultInjector,
) -> None:
    for event in events:
        lag = start + event["at_s"] - time.perf_counter()
        if lag > 0 and stop.wait(timeout=lag):
            return
        shard = router.shard(event["shard"])
        if event["action"] == "kill":
            injector._record("faults.shard_kills")
            shard.kill()
        elif event["action"] == "revive":
            shard.revive()
        else:
            injector._record("faults.shard_hangs")
            shard.hang(event["duration_s"])


def run_cluster_chaos(config: Optional[ClusterChaosConfig] = None) -> dict:
    """Run the cluster chaos soak; returns the JSON-ready report.

    The ``invariant`` section is the verdict: zero contract violations
    and availability >= the SLO through >= ``config.kills`` mid-soak
    shard kills, or ``passed`` is false (and a postmortem bundle is
    dumped when ``postmortem_dir`` is set).
    """
    config = config or ClusterChaosConfig()
    active = telemetry.current()
    scope = nullcontext(active) if active is not None else telemetry.session()
    with scope as registry:
        report = _run_cluster_chaos_instrumented(config, registry)
    return report


def _run_cluster_chaos_instrumented(config: ClusterChaosConfig, registry) -> dict:
    arrivals = generate_arrivals(config.traffic_config())
    duration_s = arrivals[-1].at_s if arrivals else 0.0

    router = ClusterRouter(config.cluster_config())
    references = _ClusterReferenceStore(config)

    references.prebuild(arrivals)
    _warm_router(router, references)

    chaos_injector = FaultInjector(seed=config.seed + 11)
    straggler_faults = FaultInjector(
        seed=config.seed + 13,
        config=FaultConfig(
            straggler_prob=config.straggler_prob,
            straggler_delay_s=config.straggler_delay_s,
        ),
    )
    # Unlike the single-service soak, client threads hit the injector
    # concurrently here, so the RNG draw is serialized (the sleep --
    # the actual fault -- stays outside the lock).
    gate_lock = threading.Lock()

    def gate(kind: str) -> None:
        with gate_lock:
            stall = straggler_faults.straggler_delay()
        if stall:
            time.sleep(stall)

    violations: List[dict] = []
    violations_lock = threading.Lock()
    checked = {"encode": 0, "decode": 0}

    def violation(arrival: Arrival, reason: str, response: ClusterResponse):
        entry = {
            "request": arrival.index,
            "kind": arrival.kind,
            "tensor_id": arrival.tensor_id,
            "reason": reason,
            "rung": response.rung,
            "shard": response.shard,
            "error_type": response.error_type,
            "trace_id": response.trace_id,
        }
        with violations_lock:
            violations.append(entry)
        flightrecorder.record(
            "cluster_chaos.contract_violation",
            request=arrival.index,
            kind=arrival.kind,
            reason=reason,
            shard=response.shard,
            trace=response.trace_id,
        )

    def send(arrival: Arrival) -> ClusterResponse:
        key = references.pool_key(arrival.tensor_id, arrival.side)
        if arrival.kind == "encode":
            response = router.encode(
                references.tensor(key), arrival.tensor_id,
                qp=config.qp, fault_gate=gate,
            )
            _check_cluster_encode(response, references, key, arrival, violation)
        else:
            response = router.decode(
                references.blob(key), arrival.tensor_id,
                fault_gate=gate,
            )
            _check_cluster_decode(response, references, key, arrival, violation)
        with violations_lock:
            checked[arrival.kind] += 1
        return response

    schedule = _build_schedule(
        config, chaos_injector, router.shard_ids, duration_s
    )
    stop = threading.Event()
    started = time.perf_counter()
    controller = threading.Thread(
        target=_run_schedule,
        args=(router, schedule, started, stop, chaos_injector),
        name="cluster-chaos-controller",
        daemon=True,
    )
    controller.start()
    driver = OpenLoopDriver(send, client_threads=config.client_threads)
    try:
        responses = driver.run(arrivals)
    finally:
        stop.set()
        controller.join(timeout=5.0)
        router.close()
    elapsed_s = time.perf_counter() - started

    if config.force_violation:
        violation(
            Arrival(0.0, -1, -1, "drill", 0, "drill"),
            "drill: forced contract violation",
            ClusterResponse(ok=False, kind="drill"),
        )

    slo = router.slo.snapshot()
    # Availability over the soak's own responses (the warmup requests
    # sit in the router's SLO tracker but are not part of the claim).
    soak_responses = [r for r in responses if r is not None]
    availability = (
        sum(1 for r in soak_responses if r.ok) / len(soak_responses)
        if soak_responses
        else 0.0
    )
    silent = sum(1 for v in violations if v["reason"].startswith("silent"))
    untyped = sum(1 for v in violations if v["reason"].startswith("untyped"))
    hedged = sum(1 for r in responses if r is not None and r.hedged)
    report = {
        "config": asdict(config),
        "elapsed_s": elapsed_s,
        "offered_duration_s": duration_s,
        "slo": slo,
        "cluster": router.stats(),
        "schedule": schedule,
        "faults_injected": {
            "shard": chaos_injector.injected,
            "stragglers": straggler_faults.injected,
        },
        "checked": dict(checked),
        "hedged_requests": hedged,
        "invariant": {
            "silent_corruptions": silent,
            "untyped_errors": untyped,
            "violations": violations,
            "availability": availability,
            "availability_slo": config.availability_slo,
            "kills": sum(1 for e in schedule if e["action"] == "kill"),
            "passed": (
                not violations and availability >= config.availability_slo
            ),
        },
    }
    report["postmortem"] = None
    if not report["invariant"]["passed"] and config.postmortem_dir:
        report["postmortem"] = flightrecorder.dump_bundle(
            config.postmortem_dir,
            reason="cluster-chaos-contract-violation",
            registry=registry,
            seed=config.seed,
            extra={
                "checked": dict(checked),
                "invariant": report["invariant"],
                "schedule": schedule,
            },
        )
    return report


def _check_cluster_encode(
    response: ClusterResponse,
    references: _ClusterReferenceStore,
    key: Tuple[int, int],
    arrival: Arrival,
    violation: Callable,
) -> None:
    if response.ok:
        if response.degraded:
            violation(arrival, "untyped: encode marked degraded", response)
            return
        if response.value.to_bytes() != references.blob(key):
            violation(
                arrival,
                "silent corruption: bytes differ from the serial reference",
                response,
            )
    elif not isinstance(response.error, CLUSTER_TYPED_ERRORS):
        violation(
            arrival, f"untyped error {response.error_type}", response
        )


def _check_cluster_decode(
    response: ClusterResponse,
    references: _ClusterReferenceStore,
    key: Tuple[int, int],
    arrival: Arrival,
    violation: Callable,
) -> None:
    if response.ok:
        if response.degraded:
            # Cluster chaos never damages payloads: concealment firing
            # on a clean blob means a shard patched over its own fault.
            violation(arrival, "untyped: clean blob concealed", response)
            return
        if not np.array_equal(response.value, references.decoded(key)):
            violation(
                arrival,
                "silent corruption: tensor differs from reference",
                response,
            )
    elif not isinstance(response.error, CLUSTER_TYPED_ERRORS):
        violation(
            arrival, f"untyped error {response.error_type}", response
        )


def format_cluster_report(report: dict) -> str:
    """Human-readable cluster chaos verdict for the CLI."""
    lines = []
    slo = report["slo"]
    inv = report["invariant"]
    router = report["cluster"]["router"]
    lines.append(
        f"cluster chaos: {slo['requests']} requests across "
        f"{report['config']['shards']} shards (R={report['config']['replication']}) "
        f"in {report['elapsed_s']:.1f}s"
    )
    lines.append(
        f"schedule: {inv['kills']} shard kills, "
        f"{report['faults_injected']['shard']} shard faults, "
        f"{report['faults_injected']['stragglers']} stragglers"
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
        f"router: hedges={router['hedges']} hedge_wins={router['hedge_wins']} "
        f"failovers={router['failovers']} drains={router['shard_drained']} "
        f"readmits={router['shard_readmitted']}"
    )
    lines.append(
        f"availability: {inv['availability']:.4f} "
        f"(slo {inv['availability_slo']:.3f})"
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
