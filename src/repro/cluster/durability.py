"""Durability chaos soak: SIGKILL mid-write, disk rot, healed replicas.

The cluster chaos soak (:mod:`repro.cluster.chaos`) proves the
*stateless* contract survives shard kills.  This one proves the
*durable* contract -- the two promises a storage system is actually
for, under the two failure modes that actually break storage systems:

- **SIGKILL mid-write** (torn writes).  Kills are armed at precise
  store write stages (:data:`~repro.cluster.store.PUT_STAGES`) so the
  process dies *inside* a put -- halfway through the record's header,
  halfway through its payload, or just after the fsync whose ack never
  reached the client.  Each stage leaves different wreckage for
  recovery to clean up.
- **Disk corruption at rest.**  :class:`FaultInjector` bit-flips,
  cuts short, and blanks one key's payload bytes inside the log behind
  the running store's back; the scrubber and the verified read path
  must surface every damaged byte as quarantine + failover, never as
  served garbage.  (Each key is damaged at most once -- the model is
  independent disk failures, not a byzantine adversary erasing every
  replica of a key, which no R-way design can survive.)

The soak drives an open-loop put/get workload through the router
while a controller thread runs the kill/revive/corruption schedule
and a scrubber thread sweeps CRCs and compacts each journal it swept
(the soak's fresh keys leave too few dead bytes for a put to trigger
one), so compactions land between disk faults, kills and reads.  The
invariant, checked during the soak and settled after a final scrub +
converging anti-entropy run:

1. **Acknowledged-write durability 100%**: every put the router acked
   (write-quorum fsyncs) reads back bit-exact at the end, through >= 3
   mid-write SIGKILLs and every injected disk fault.
2. **No silent corruption**: every read during the soak is bit-exact
   or a typed error (:data:`DURABILITY_TYPED_ERRORS`).
3. **Replication healed**: after anti-entropy converges, every acked
   key's winning copy is held by min(R, alive shards) replicas.

Any breach -> ``passed=False``, exit 2 in the CLI, and a flight-recorder
postmortem bundle when ``postmortem_dir`` is set.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry import flightrecorder
from repro.harness import (
    ViolationLedger,
    attach_postmortem,
    fault_controller,
    format_verdict,
    kill_revive_events,
    telemetry_scope,
)
from repro.resilience.faults import FaultInjector
from repro.cluster.chaos import CLUSTER_TYPED_ERRORS
from repro.cluster.repair import collect_digests, repair_until_converged
from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.cluster.store import PUT_STAGES, StoreError
from repro.cluster.traffic import Arrival, OpenLoopDriver

__all__ = [
    "DURABILITY_TYPED_ERRORS",
    "DurabilityChaosConfig",
    "format_durability_report",
    "run_durability_chaos",
]

#: The failure vocabulary of the durable path: everything the stateless
#: cluster may answer, plus the store's typed errors (miss, quarantined
#: copy, recovering store) -- note ``WriteQuorumFailed`` subclasses
#: ``ClusterUnavailable`` and is already covered.
DURABILITY_TYPED_ERRORS = CLUSTER_TYPED_ERRORS + (StoreError,)

#: Mid-write kill stages cycled across the schedule: torn inside the
#: record's header, torn inside its payload, and after the fsync whose
#: ack the client never saw (the classic unacknowledged-but-durable
#: ambiguity).
_KILL_STAGES = ("journal_partial", "payload_partial", "journal_synced")


@dataclass
class DurabilityChaosConfig:
    """Knobs of one durability soak (seeded, bounded, reproducible)."""

    shards: int = 4
    replication: int = 2
    ops: int = 600
    seed: int = 0
    #: Fraction of operations that are puts (each under a fresh key).
    write_fraction: float = 0.55
    payload_min: int = 256
    payload_max: int = 4096
    deadline_s: float = 3.0
    base_rate_rps: float = 150.0
    client_threads: int = 12
    # -- crash schedule -----------------------------------------------
    #: Mid-write SIGKILLs (armed at cycled store write stages).
    kills: int = 3
    revive_after_s: float = 0.5
    #: How long an armed kill may wait for a put to reach its stage
    #: before the controller falls back to a plain kill.
    arm_timeout_s: float = 1.5
    # -- disk corruption ----------------------------------------------
    disk_faults: int = 5
    # -- scrubber -----------------------------------------------------
    scrub_interval_s: float = 0.2
    scrub_budget: int = 32
    # -- repair -------------------------------------------------------
    repair_passes: int = 6
    # -- reporting ----------------------------------------------------
    postmortem_dir: Optional[str] = None
    #: Drill switch: one synthetic violation to exercise the postmortem
    #: and exit-2 paths without breaking the store.
    force_violation: bool = False
    #: Store root; ``None`` creates (and cleans up) a temp directory.
    store_root: Optional[str] = None

    def cluster_config(self, store_root: str) -> ClusterConfig:
        return ClusterConfig(
            shards=self.shards,
            replication=self.replication,
            deadline_s=self.deadline_s,
            store_root=store_root,
        )


def _payload_for(seed: int, index: int, size: int) -> bytes:
    rng = np.random.default_rng((seed, 0xD15C, index))
    return rng.bytes(size)


def _build_ops(
    config: DurabilityChaosConfig,
) -> Tuple[List[Arrival], Dict[str, bytes]]:
    """Seeded operation schedule: puts mint fresh keys, gets replay them.

    Returns the arrivals (``tensor_id`` is the key, ``kind`` put/get)
    and the payload written under each key.  Arrival times come from a
    plain seeded Poisson process (the diurnal/burst machinery of
    :mod:`repro.cluster.traffic` models *serving* load; storage soaks
    want steady pressure so kills land on a busy write path, not in a
    lull).
    """
    rng = np.random.default_rng(config.seed + 0x57)
    arrivals: List[Arrival] = []
    payloads: Dict[str, bytes] = {}
    put_indices: List[int] = []
    at_s = 0.0
    for index in range(config.ops):
        at_s += float(rng.exponential(1.0 / config.base_rate_rps))
        if not put_indices or float(rng.random()) < config.write_fraction:
            size = int(
                rng.integers(config.payload_min, config.payload_max + 1)
            )
            kind, target = "put", index
            payloads[f"k-{index:05d}"] = _payload_for(
                config.seed, index, size
            )
            put_indices.append(index)
        else:
            kind = "get"
            target = put_indices[int(rng.integers(0, len(put_indices)))]
        arrivals.append(
            Arrival(at_s, index, 0, f"k-{target:05d}", 0, kind)
        )
    return arrivals, payloads


def _build_schedule(
    config: DurabilityChaosConfig,
    rng: np.random.Generator,
    shard_ids: Tuple[str, ...],
    duration_s: float,
) -> List[dict]:
    """Seeded kill + disk-fault schedule through the middle of the soak."""
    # Gaps are revive-window sized (armed kills usually fire within a
    # few writes); the whole kill train must land well inside the
    # traffic window -- an armed kill with no traffic left never fires.
    events = kill_revive_events(
        rng, shard_ids, duration_s, config.kills, config.revive_after_s,
        first=0.1, spread=0.5, slack_s=0.3,
    )
    for index, kill in enumerate(events[::2]):
        kill["stage"] = _KILL_STAGES[index % len(_KILL_STAGES)]
    for _ in range(config.disk_faults):
        at_f = float(rng.uniform(duration_s * 0.1, duration_s * 0.9))
        victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
        events.append({"at_s": at_f, "action": "disk", "shard": victim})
    events.sort(key=lambda event: event["at_s"])
    return events


class _Controller:
    """Applies the chaos schedule's events (on the schedule's thread)."""

    def __init__(
        self,
        router: ClusterRouter,
        config: DurabilityChaosConfig,
        injector: FaultInjector,
        stop: threading.Event,
    ) -> None:
        self.router = router
        self.config = config
        self.injector = injector
        self.stop = stop
        self.kills_mid_write = 0
        self.kills_fallback = 0
        self.disk_faults_applied: List[dict] = []
        self._damaged_keys: set = set()

    def apply(self, event: dict) -> None:
        if event["action"] == "kill":
            self._kill(event)
        elif event["action"] == "revive":
            self.router.shard(event["shard"]).revive()
        elif event["action"] == "disk":
            self._disk_fault(event)

    def _kill(self, event: dict) -> None:
        shard = self.router.shard(event["shard"])
        if not shard._alive:
            # Victim already down (back-to-back schedule slip): pick
            # any alive shard so the kill count still holds.
            alive = [
                self.router.shard(sid) for sid in self.router.shard_ids
                if self.router.shard(sid)._alive
            ]
            if not alive:
                return
            shard = alive[0]
        shard.arm_kill(event["stage"])
        deadline = time.perf_counter() + self.config.arm_timeout_s
        while time.perf_counter() < deadline and shard._alive:
            if self.stop.wait(timeout=0.005):
                # Soak over with the kill still armed: disarm and bail
                # (a kill after the settle phase would corrupt the
                # audit, not the store).
                shard._armed_kill_stage = None
                return
        mid_write = not shard._alive
        if mid_write:
            self.kills_mid_write += 1
        else:
            # No put reached the armed stage in time (traffic lull):
            # plain SIGKILL so the schedule still exercises recovery.
            shard.kill()
            self.kills_fallback += 1
        self.injector.record()
        flightrecorder.record(
            "durability_chaos.kill", shard=shard.shard_id,
            stage=event["stage"], mid_write=mid_write,
        )

    def _disk_fault(self, event: dict) -> None:
        shard = self.router.shard(event["shard"])
        store = shard.store
        if store is None:
            return
        candidates = [
            key for key in store.keys() if key not in self._damaged_keys
        ]
        if not candidates:
            return
        rng = self.injector.rng
        chosen = candidates[int(rng.integers(0, len(candidates)))]
        try:
            # Held, so a compaction cannot move the span between the
            # lookup and the write: the bytes hit are the key's.
            with store.pinned_span(chosen) as (offset, length):
                self._damaged_keys.add(chosen)
                mode = self.injector.damage_span(
                    store.journal_path, offset, length
                )
        except StoreError:
            return  # the shard was killed before the lookup
        if mode:
            self.disk_faults_applied.append({
                "shard": shard.shard_id, "key": chosen, "mode": mode,
            })
            flightrecorder.record(
                "durability_chaos.disk_fault",
                shard=shard.shard_id, key=chosen, mode=mode,
            )


def _scrub_loop(
    router: ClusterRouter,
    config: DurabilityChaosConfig,
    stop: threading.Event,
    totals: Dict[str, int],
) -> None:
    while not stop.wait(timeout=config.scrub_interval_s):
        for shard_id in router.shard_ids:
            shard = router.shard(shard_id)
            store = shard.store
            if store is None or not shard.alive or not store.open:
                continue
            try:
                outcome = store.scrub(config.scrub_budget)
            except StoreError:
                continue  # crashed between the check and the scrub
            totals["checked"] += outcome["checked"]
            totals["quarantined"] += len(outcome["corrupt"])
            try:
                compacted = store.compact()
            except StoreError:
                continue  # crashed since the scrub
            totals["quarantined"] += len(compacted["quarantined"])


@telemetry_scope()
def run_durability_chaos(
    config: Optional[DurabilityChaosConfig] = None,
) -> dict:
    """Run the durability soak; returns the JSON-ready report.

    The ``invariant`` section is the verdict; ``passed`` requires 100%
    acked-write durability, zero silent corruption, a healed
    replication factor, and the scheduled mid-write kill count.
    """
    config = config or DurabilityChaosConfig()
    if config.store_root is not None:
        return _run_soak(config, config.store_root)
    import tempfile

    with tempfile.TemporaryDirectory(prefix="llm265-durability-") as root:
        return _run_soak(config, root)


def _run_soak(config: DurabilityChaosConfig, store_root: str) -> dict:
    arrivals, payloads = _build_ops(config)
    duration_s = arrivals[-1].at_s if arrivals else 0.0

    router = ClusterRouter(config.cluster_config(store_root))
    injector = FaultInjector(seed=config.seed + 23)
    schedule = _build_schedule(
        config, injector.rng, router.shard_ids, duration_s
    )

    acked: Dict[str, Tuple[int, bytes]] = {}
    acked_lock = threading.Lock()
    ledger = ViolationLedger(
        "durability_chaos.violation", ("put", "get"),
        ("error_type", "shard"),
    )

    def send(arrival: Arrival):
        key, payload = arrival.tensor_id, payloads[arrival.tensor_id]
        if arrival.kind == "put":
            response = router.put(payload, key)
            if response.ok:
                with acked_lock:
                    acked[key] = (response.version, payload)
        else:
            response = router.get(key)
        ledger.judge(
            response, payload, DURABILITY_TYPED_ERRORS,
            op=arrival.kind, key=key,
        )
        return response

    stop = threading.Event()
    controller = _Controller(router, config, injector, stop)
    scrub_totals = {"checked": 0, "quarantined": 0}
    scrubber_thread = threading.Thread(
        target=_scrub_loop, args=(router, config, stop, scrub_totals),
        name="durability-scrubber", daemon=True,
    )
    driver = OpenLoopDriver(send, client_threads=config.client_threads)
    started = time.perf_counter()
    with fault_controller(
        schedule, controller.apply, "durability-chaos-controller", stop
    ):
        scrubber_thread.start()
        driver.run(arrivals)
    scrubber_thread.join(timeout=5.0)
    # -- settle: revive everything, heal, then judge ------------------
    for shard_id in router.shard_ids:
        shard = router.shard(shard_id)
        if not shard._alive:
            shard.revive()
    # Re-admit every healthy shard directly (the probe path needs
    # live traffic to fire; the soak is over).
    with router._lock:
        for shard_id, health in router.health.items():
            health.reset()
            router._sync_ring_locked(shard_id)
    # Full scrub: force every latent disk fault to surface as
    # quarantine *before* repair, so repair has something to heal.
    for shard_id in router.shard_ids:
        store = router.shard(shard_id).store
        if store is not None and store.open:
            outcome = store.scrub(None)
            scrub_totals["checked"] += outcome["checked"]
            scrub_totals["quarantined"] += len(outcome["corrupt"])
    repair_report = repair_until_converged(
        router, max_passes=config.repair_passes
    )
    elapsed_s = time.perf_counter() - started

    # -- final durability audit: every acked write, bit-exact ---------
    acked_lost: List[dict] = []
    for key, (version, payload) in sorted(acked.items()):
        response = router.get(key)
        if not response.ok:
            acked_lost.append({
                "key": key, "version": version,
                "error_type": response.error_type,
            })
            ledger.record(
                f"acked write lost: final read failed "
                f"({response.error_type})",
                response, op="audit", key=key,
            )
        elif response.value != payload:
            acked_lost.append({
                "key": key, "version": version, "error_type": "mismatch",
            })
            ledger.record(
                "acked write corrupted: final read not bit-exact",
                response, op="audit", key=key,
            )

    # -- replication census: winner held by min(R, alive) owners ------
    digests = collect_digests(router)
    required = min(config.replication, max(len(digests), 1))
    under_replicated: List[dict] = []
    for key, (version, payload) in sorted(acked.items()):
        expected = (
            version,
            hashlib.blake2b(payload, digest_size=16).hexdigest(),
        )
        holders = sum(
            1 for digest in digests.values()
            if digest.get(key) == expected
        )
        if holders < required:
            under_replicated.append({
                "key": key, "holders": holders, "required": required,
            })
            ledger.record(
                f"replication not restored: {holders}/{required} holders",
                op="census", key=key,
            )

    if config.force_violation:
        ledger.record(
            "drill: forced durability violation", op="drill", key="drill"
        )

    compactions = sum(
        router.shard(shard_id).store.counters["compactions"]
        for shard_id in router.shard_ids
    )
    router.close()

    kills_done = controller.kills_mid_write + controller.kills_fallback
    report = {
        "config": asdict(config),
        "elapsed_s": elapsed_s,
        "offered_duration_s": duration_s,
        "checked": ledger.checked,
        "acked_writes": len(acked),
        "schedule": schedule,
        "disk_faults_applied": controller.disk_faults_applied,
        "scrub": scrub_totals,
        "compactions": compactions,
        "repair": repair_report.to_dict(),
        "cluster": router.stats(),
        "invariant": {
            "acked_writes": len(acked),
            "acked_lost": acked_lost,
            "silent_corruptions": ledger.count(
                "silent", "acked write corrupted"
            ),
            "under_replicated": under_replicated,
            "mid_write_kills": controller.kills_mid_write,
            "fallback_kills": controller.kills_fallback,
            "kills_required": config.kills,
            "repair_converged": repair_report.converged,
            "violations": ledger.violations,
            "passed": (
                not ledger.violations
                and not acked_lost
                and not under_replicated
                and kills_done >= config.kills
                and repair_report.converged
            ),
        },
    }
    return attach_postmortem(
        report, config, "durability-chaos-violation",
        schedule=schedule, disk_faults=controller.disk_faults_applied,
    )


def format_durability_report(report: dict) -> str:
    """Human-readable durability soak verdict for the CLI."""
    inv = report["invariant"]
    cfg = report["config"]
    lines = [
        f"durability chaos: {report['checked']['put']} puts / "
        f"{report['checked']['get']} gets across {cfg['shards']} shards "
        f"(R={cfg['replication']}) in {report['elapsed_s']:.1f}s",
        f"schedule: {inv['mid_write_kills']} mid-write kills "
        f"(+{inv['fallback_kills']} fallback, {inv['kills_required']} "
        f"required), {len(report['disk_faults_applied'])} disk faults "
        f"({', '.join(sorted({f['mode'] for f in report['disk_faults_applied']})) or 'none'})",
        f"scrub: {report['scrub']['checked']} payloads checked, "
        f"{report['scrub']['quarantined']} quarantined; "
        f"{report['compactions']} journal compactions",
    ]
    repair = report.get("repair")
    if repair:
        lines.append(
            f"repair: {repair['passes']} pass(es), "
            f"{repair['copies_made']} copies, "
            f"converged={repair['converged']}"
        )
    lines.append(
        f"durability: {inv['acked_writes']} acked writes, "
        f"{len(inv['acked_lost'])} lost, "
        f"{inv['silent_corruptions']} silent corruptions, "
        f"{len(inv['under_replicated'])} under-replicated"
    )
    lines += format_verdict(report)
    return "\n".join(lines)
