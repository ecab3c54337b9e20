"""Shard-kill chaos soak for :class:`~repro.cluster.router.ClusterRouter`.

The concealment soak (:mod:`repro.serving.chaos`) damages bytes and
stalls requests inside one service; this one takes out the failure
domain the router handles: whole shards, mid-soak, under open-loop
load.  A seeded schedule
SIGKILLs and hangs shards while the traffic generator keeps firing,
and every response is checked against the typed-response contract
(:func:`repro.harness.check_response`, with
:data:`CLUSTER_TYPED_ERRORS` as the vocabulary) -- replication and
hedging must never change *what* is computed, only *where*.  Cluster
chaos kills processes but does not damage payloads, so a ``degraded``
answer is never legitimate here.

A violation is a silent wrong answer -- the outcome the cluster exists
to make impossible -- and fails the run (exit 2 in the CLI, and the CI
gate).  The invariant also asserts **availability**: with R >= 2 a
single shard loss must not take out its key range, so the soak's
availability floor (default 0.999) holds *through* the kills, not just
between them.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.harness import (
    ReferenceStore,
    ViolationLedger,
    attach_postmortem,
    availability_invariant,
    fault_controller,
    fault_gate,
    fault_injector,
    format_traffic,
    format_verdict,
    kill_revive_events,
    telemetry_scope,
)
from repro.resilience.faults import FaultInjector
from repro.serving.chaos import TYPED_ERRORS
from repro.serving.slo import SloTracker
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
        )

    def traffic_config(self) -> TrafficConfig:
        return TrafficConfig(
            requests=self.requests,
            base_rate_rps=self.base_rate_rps,
            burst_factor=self.burst_factor,
            seed=self.seed + 7,
        )


class _PooledReferences(ReferenceStore):
    """Bit-exact references for open-loop traffic, per (size class, pool index).

    Tensor *content* is pooled (``tensors_per_side`` payloads per size)
    so references stay cheap even when the workload mints thousands of
    distinct routing keys; ``tensor_id`` hashes into the pool with a
    stable CRC so the mapping survives reordering and reruns.
    """

    def __init__(self, config: ClusterChaosConfig) -> None:
        super().__init__(self._make_tensor, config.tile, config.qp)
        self._seed = config.seed
        self._pool = config.tensors_per_side

    def _make_tensor(self, key: Tuple[int, int]) -> np.ndarray:
        side, index = key
        rng = np.random.default_rng((self._seed, side, index))
        return rng.standard_normal((side, side)).astype(np.float32)

    def pool_key(self, arrival: Arrival) -> Tuple[int, int]:
        index = zlib.crc32(arrival.tensor_id.encode()) % self._pool
        return (arrival.side, index)

    def prebuild(self, arrivals) -> None:
        """Materialize every payload the workload will need, up front.

        Lazy reference encodes are serial ~5-60ms jobs under the store
        lock; paying them *during* an open-loop soak steals GIL time
        from the cluster and stalls client threads, so the measured
        latency would include the harness's own warmup.
        """
        for arrival in arrivals:
            self.expected(arrival.kind, self.pool_key(arrival))


def _warm_router(router: ClusterRouter, references: _PooledReferences) -> None:
    """Exercise every shard and payload shape before the clock starts.

    First contact pays one-time costs (kernel JIT per tensor shape,
    pool spin-up, lazily spawned dispatch threads) that belong to
    process startup, not to the soak being measured -- without this the
    first run's tail is dominated by whichever rare shape arrived
    first.
    """
    sides = {side: (side, index) for side, index in references.keys()}
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


def _send(
    router: ClusterRouter,
    references: _PooledReferences,
    arrival: Arrival,
    qp: float,
    gate: Optional[Callable[[str], None]],
) -> ClusterResponse:
    """One open-loop request: the arrival's pooled payload via the router."""
    key = references.pool_key(arrival)
    if arrival.kind == "encode":
        return router.encode(
            references.tensor(key), arrival.tensor_id,
            qp=qp, fault_gate=gate,
        )
    return router.decode(
        references.blob(key), arrival.tensor_id, fault_gate=gate
    )


@telemetry_scope()
def run_cluster_chaos(config: Optional[ClusterChaosConfig] = None) -> dict:
    """Run the cluster chaos soak; returns the JSON-ready report.

    The ``invariant`` section is the verdict: zero contract violations
    and availability >= the SLO through >= ``config.kills`` mid-soak
    shard kills, or ``passed`` is false (and a postmortem bundle is
    dumped when ``postmortem_dir`` is set).
    """
    config = config or ClusterChaosConfig()
    arrivals = generate_arrivals(config.traffic_config())
    duration_s = arrivals[-1].at_s if arrivals else 0.0

    router = ClusterRouter(config.cluster_config())
    references = _PooledReferences(config)

    references.prebuild(arrivals)
    _warm_router(router, references)
    # The report's SLO is the soak's traffic: the warm-up requests
    # belong to startup, so their outcomes and latencies are dropped.
    router.slo = SloTracker()

    chaos_injector = FaultInjector(seed=config.seed + 11)
    straggler_faults = fault_injector(
        config.seed + 13, config, "straggler_prob", "straggler_delay_s"
    )
    gate = fault_gate(straggler_faults)
    ledger = ViolationLedger(
        "cluster_chaos.contract_violation", ("encode", "decode"),
        ("rung", "shard", "error_type", "trace_id"),
    )

    def send(arrival: Arrival) -> ClusterResponse:
        response = _send(router, references, arrival, config.qp, gate)
        ledger.judge(
            response,
            references.expected(arrival.kind, references.pool_key(arrival)),
            CLUSTER_TYPED_ERRORS,
            request=arrival.index, kind=arrival.kind,
            tensor_id=arrival.tensor_id,
        )
        return response

    def inject(event: dict) -> None:
        shard = router.shard(event["shard"])
        if event["action"] == "kill":
            chaos_injector.record()
            shard.kill()
        elif event["action"] == "revive":
            shard.revive()
        else:
            chaos_injector.record()
            shard.hang(event["duration_s"])

    # Kills through the middle of the soak, the revive window plus
    # probe slack apart (and after the start); hangs land anywhere.
    rng, shard_ids = chaos_injector.rng, router.shard_ids
    schedule = kill_revive_events(
        rng, shard_ids, duration_s, config.kills, config.revive_after_s,
        first=0.15, spread=0.55, slack_s=0.5, jitter=0.1,
        not_before_s=config.revive_after_s + 0.5,
    )
    for _ in range(config.hangs):
        at_h = float(rng.uniform(duration_s * 0.1, duration_s * 0.8))
        victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
        schedule.append(
            {"at_s": at_h, "action": "hang", "shard": victim,
             "duration_s": config.hang_s}
        )
    schedule.sort(key=lambda e: e["at_s"])

    driver = OpenLoopDriver(send, client_threads=config.client_threads)
    started = time.perf_counter()
    try:
        with fault_controller(schedule, inject, "cluster-chaos-controller"):
            responses = driver.run(arrivals)
    finally:
        router.close()
    elapsed_s = time.perf_counter() - started

    if config.force_violation:
        ledger.record(
            "drill: forced contract violation",
            ClusterResponse(ok=False, kind="drill"),
            request=-1, kind="drill", tensor_id="drill",
        )

    soak_responses = [r for r in responses if r is not None]
    availability = (
        sum(1 for r in soak_responses if r.ok) / len(soak_responses)
        if soak_responses
        else 0.0
    )
    report = {
        "config": asdict(config),
        "elapsed_s": elapsed_s,
        "offered_duration_s": duration_s,
        "slo": router.slo.snapshot(),
        "cluster": router.stats(),
        "schedule": schedule,
        "faults_injected": {
            "shard": chaos_injector.injected,
            "stragglers": straggler_faults.injected,
        },
        "checked": ledger.checked,
        "hedged_requests": sum(1 for r in soak_responses if r.hedged),
        "invariant": availability_invariant(
            ledger, availability, config.availability_slo,
            kills=sum(1 for e in schedule if e["action"] == "kill"),
        ),
    }
    return attach_postmortem(
        report, config, "cluster-chaos-contract-violation",
        checked=ledger.checked, schedule=schedule,
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
    lines += format_traffic(slo)
    lines.append(
        f"router: hedges={router['hedges']} hedge_wins={router['hedge_wins']} "
        f"failovers={router['failovers']} drains={router['shard_drained']} "
        f"readmits={router['shard_readmitted']}"
    )
    lines += format_verdict(report)
    return "\n".join(lines)
