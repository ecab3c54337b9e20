"""Anti-entropy: heal the ring's R-way replication after failures.

A shard death (and the drain that follows) leaves its key ranges
under-replicated; a crash recovery that truncated a corrupt journal
suffix leaves acknowledged keys missing from one replica; a scrubbed
bit-flip leaves a quarantined copy that the shard can no longer
serve.  None of these lose acknowledged data -- quorum writes put the
bytes on other replicas -- but all of them erode the margin the next
failure would need.  Anti-entropy is the loop that restores it:

1. **Digest exchange.**  Every alive, store-backed shard reports
   ``key -> (version, hash)`` for the keys it can actually serve
   (quarantined keys are deliberately absent -- for replication
   accounting a copy that cannot be read does not exist).
2. **Winner election.**  Per key, the winner is the maximum
   ``(version, hash)`` pair across all holders.  Versions come from
   the router's single monotonic clock, so a higher version is a
   strictly newer acknowledged write; the hash tiebreak only matters
   for torn multi-put races and makes the election deterministic.
3. **Re-replication.**  The key's current owners (the ring's first R
   healthy shards) that lack the winning copy receive it -- fetched
   from a winning holder through the *verified* read path (a source
   whose copy turns out corrupt is quarantined and the next holder is
   tried) and written through the *journaled* write path at the
   winner's version, so a repair copy is exactly as durable as a
   client write.

One pass converges unless shards fail mid-repair;
:func:`repair_until_converged` loops passes until a clean one (no
copies needed, nothing unrepairable) or a bounded pass budget.  The
router schedules a pass automatically whenever a drained shard is
re-admitted (always); the chaos soak also runs a
final converging sweep before checking the replication invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.telemetry import flightrecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.router import ClusterRouter

__all__ = ["RepairReport", "collect_digests", "repair_until_converged",
           "run_anti_entropy"]


@dataclass
class RepairReport:
    """What one anti-entropy pass (or converging run) saw and did."""

    keys_scanned: int = 0
    #: Keys found on fewer owners than the ring requires (pre-repair).
    under_replicated: int = 0
    #: Keys where holders disagreed on (version, hash) -- stale copies.
    conflicts: int = 0
    copies_made: int = 0
    copy_failures: int = 0
    #: Keys needing repair with no readable winning copy anywhere.
    unrepairable: List[str] = field(default_factory=list)
    passes: int = 1
    converged: bool = True
    elapsed_s: float = 0.0

    def merge(self, other: "RepairReport") -> None:
        self.keys_scanned = max(self.keys_scanned, other.keys_scanned)
        self.under_replicated = max(
            self.under_replicated, other.under_replicated
        )
        self.conflicts = max(self.conflicts, other.conflicts)
        self.copies_made += other.copies_made
        self.copy_failures += other.copy_failures
        self.unrepairable = list(other.unrepairable)
        self.elapsed_s += other.elapsed_s

    def to_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["unrepairable"] = list(self.unrepairable)
        return doc


def collect_digests(
    router: "ClusterRouter",
) -> Dict[str, Dict[str, Tuple[int, str]]]:
    """Per-shard servable-key digests from every alive, store-backed shard."""
    digests: Dict[str, Dict[str, Tuple[int, str]]] = {}
    for shard_id in router.shard_ids:
        shard = router.shard(shard_id)
        if shard.store is None or not shard.alive or not shard.store.open:
            continue
        digests[shard_id] = shard.store.digest()
    return digests


def _owners(router: "ClusterRouter", key: str) -> Tuple[str, ...]:
    with router._lock:
        return router.ring.replicas(key, router.config.replication)


def run_anti_entropy(router: "ClusterRouter") -> RepairReport:
    """One digest-exchange / re-replication pass over the whole cluster."""
    started = time.perf_counter()
    report = RepairReport()
    digests = collect_digests(router)
    all_keys = sorted({key for digest in digests.values() for key in digest})
    report.keys_scanned = len(all_keys)

    for key in all_keys:
        holders = {
            shard_id: digest[key]
            for shard_id, digest in digests.items()
            if key in digest
        }
        winner = max(holders.values())
        if len(set(holders.values())) > 1:
            report.conflicts += 1
        owners = _owners(router, key)
        targets = [
            shard_id for shard_id in owners
            if digests.get(shard_id, {}).get(key) != winner
            and shard_id in digests  # only alive store shards are writable
        ]
        if not targets:
            continue
        report.under_replicated += 1

        payload: Optional[bytes] = None
        sources = sorted(
            sid for sid, entry in holders.items() if entry == winner
        )
        for source in sources:
            outcome = router.shard(source).get(key)
            if outcome.ok:
                payload = outcome.value
                break
            # A corrupt winning copy just quarantined itself; the next
            # holder may still be clean.
        if payload is None:
            report.unrepairable.append(key)
            flightrecorder.record(
                "repair.unrepairable", key=key,
                holders=len(holders), sources=len(sources),
            )
            continue

        version = winner[0]
        for target in targets:
            outcome = router.shard(target).put(key, payload, version)
            if outcome.ok:
                report.copies_made += 1
                router._count("repair_copies")
            else:
                report.copy_failures += 1

    report.elapsed_s = time.perf_counter() - started
    router._count("repair_passes")
    flightrecorder.record(
        "repair.pass_done",
        keys=report.keys_scanned,
        under_replicated=report.under_replicated,
        copies=report.copies_made,
        failures=report.copy_failures,
        unrepairable=len(report.unrepairable),
        elapsed_ms=round(1e3 * report.elapsed_s, 3),
    )
    return report


def repair_until_converged(
    router: "ClusterRouter", max_passes: int = 4
) -> RepairReport:
    """Run passes until one is clean (nothing to copy, nothing broken).

    Convergence is one full pass with zero copies made, zero copy
    failures, and zero unrepairable keys -- i.e. the digest exchange
    itself proved the R-way invariant holds.  A cluster that keeps
    failing mid-repair exhausts ``max_passes`` and reports
    ``converged=False`` so callers (the soak, tests) fail loudly
    instead of looping forever.
    """
    total = RepairReport(passes=0)
    for _ in range(max(1, max_passes)):
        one = run_anti_entropy(router)
        total.merge(one)
        total.passes += 1
        clean = (
            one.copies_made == 0
            and one.copy_failures == 0
            and not one.unrepairable
        )
        if clean:
            total.converged = True
            return total
    total.converged = False
    flightrecorder.record(
        "repair.not_converged", passes=total.passes,
        unrepairable=len(total.unrepairable),
    )
    return total
