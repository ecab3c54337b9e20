"""The chaos soak: every fault family at once, over a durable cluster.

:func:`run_chaos` drives a durable
:class:`~repro.cluster.router.ClusterRouter` (R = 2, a temporary
``store_root``) with one seeded open-loop stream of encode / decode /
put / get (:mod:`repro.cluster.traffic`) while one seeded schedule
draws every fault family:

- **timing**: per-request hangs and stragglers before a codec call
  (:func:`fault_gate`), which hedging and failover must absorb;
- **payload**: decode blobs damaged past the protected prefix
  (:func:`damage_payload`): concealment answers ``degraded`` with a
  report, or the request fails typed;
- **shard**: SIGKILLs armed at a store write stage
  (:data:`_KILL_STAGES`: torn inside a record's header, torn inside
  its payload, or after the fsync whose ack never left), a plain kill
  when no put reaches the stage in time, a revive after
  :data:`REVIVE_AFTER_S`; and shard hangs;
- **disk**: one key's payload bytes flipped, cut short or blanked
  inside a shard's journal (held by ``pinned_span``, each key at most
  once: independent disk failures, not an adversary erasing every
  replica), with a scrubber thread sweeping CRCs and compacting beside
  the traffic.

Each put stores a clean codec container, with its fresh key appended,
under that key -- remote KV reuse, where damaged payloads, dead shards
and torn writes arrive together.  The appended key makes every put's
bytes unique, so a store that serves another key's record fails the
bit-exact get check and the final audit.
After the traffic the soak settles (revive, re-admit, full scrub,
repair until converged), reads every acknowledged write back through
the router and takes the replication census.

**The contract** (:func:`check_response`), on every answer:

- ``ok`` and not ``degraded``: bit-exact with a clean serial run,
  whichever shard or replica served it (encode: the container bytes;
  decode: the tensor; get: the bytes that were put);
- ``ok`` and ``degraded``: only a decode whose input really was
  damaged, with a concealment report that says what was patched;
- not ``ok``: an error in :data:`TYPED_ERRORS` for the request's kind.

**The verdict** (:func:`judge`) passes only with no violation of any
kind: the contract on every answer; every acked write read back
bit-exact and held by min(R, alive) replicas once repair converged;
the scheduled kill count reached; undamaged encode/decode availability
at least :data:`UNDAMAGED_FLOOR` through the kills, and all
encode/decode availability, damaged requests included, at least
:data:`ALL_FLOOR`.  Each violation is recorded in the
:class:`ViolationLedger` and counted by reason prefix
(:data:`REASONS`); a failed verdict writes a flight-recorder
postmortem bundle when ``postmortem_dir`` is set, and the CLI exits 2.
"""

from __future__ import annotations

import hashlib
import tempfile
import threading
import time
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec.encoder import _HEADER_SIZE
from repro.telemetry import flightrecorder
from repro.telemetry.propagate import TracedTask, merge_delta
from repro.resilience.deadline import DeadlineExceeded
from repro.resilience.errors import CorruptStreamError
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.serving.broker import Overloaded
from repro.serving.service import CodecFault
from repro.serving.slo import SloTracker
from repro.tensor.codec import CompressedTensor, TensorCodec
from repro.cluster.repair import (
    RepairReport,
    collect_digests,
    repair_until_converged,
)
from repro.cluster.router import (
    ClusterConfig,
    ClusterRouter,
    ClusterUnavailable,
)
from repro.cluster.shard import ShardDown
from repro.cluster.store import StoreError
from repro.cluster.traffic import (
    Arrival,
    OpenLoopDriver,
    TrafficConfig,
    generate_arrivals,
)

__all__ = ["ChaosConfig", "TYPED_ERRORS", "format_report", "run_chaos"]

_REQUEST_ERRORS = (
    Overloaded,
    DeadlineExceeded,
    CorruptStreamError,
    CodecFault,
    ValueError,
    ShardDown,
    ClusterUnavailable,  # WriteQuorumFailed too: it subclasses this
)

#: The one typed vocabulary: the failures an answer of each request
#: kind may carry.  Anything else -- a store error on an encode among
#: them -- is a contract violation.
TYPED_ERRORS: Dict[str, tuple] = {
    "encode": _REQUEST_ERRORS,
    "decode": _REQUEST_ERRORS,
    "put": _REQUEST_ERRORS + (StoreError,),
    "get": _REQUEST_ERRORS + (StoreError,),
}

#: The verdict's reason families, as the ledger counts them (prefixes).
REASONS = (
    "silent corruption",
    "untyped",
    "acked write lost",
    "acked write corrupted",
    "replication not restored",
    "repair not converged",
    "kills short",
    "availability below floor",
    "drill",
)

#: Availability floors: undamaged encode/decode through the kills, and
#: all encode/decode with the damaged requests included.
UNDAMAGED_FLOOR = 0.999
ALL_FLOOR = 0.99

SHARDS = 4
REPLICATION = 2
TILE = 32
QP = 26.0
DEADLINE_S = 3.0
CLIENT_THREADS = 12
#: Long-run arrival rate: open-loop soaks must be provisioned, not
#: saturated, or every number measured is the overload spiral.
RATE_RPS = 120.0
#: Tensor payloads per size class: routing keys stay diverse while the
#: bit-exact references stay a dozen serial encodes.
POOL = 4
#: Share of the stream relabelled as storage traffic, and of that the
#: puts (each under a fresh key; a get replays an earlier put's key).
STORE_SHARE = 0.4
PUT_SHARE = 0.55
BURST_FACTOR = 2.0

TIMING_FAULTS = dict(
    hang_prob=0.02, hang_s=0.3, straggler_prob=0.05, straggler_delay_s=0.02
)
PAYLOAD_FAULTS = dict(bit_flip_prob=0.06, truncate_prob=0.02)
_KILL_STAGES = ("journal_partial", "payload_partial", "journal_synced")
#: Dead time before a killed shard restarts (re-admission then waits
#: for the router's probe), and the extra gap between two kills.
REVIVE_AFTER_S = 0.5
KILL_SLACK_S = 0.5
#: How long an armed kill waits for a put to reach its stage before
#: the controller falls back to a plain kill.
ARM_TIMEOUT_S = 1.0
HANGS = 1
SHARD_HANG_S = 0.6
DISK_FAULTS = 4
SCRUB_INTERVAL_S = 0.2
SCRUB_BUDGET = 32
REPAIR_PASSES = 6


@dataclass
class ChaosConfig:
    """Knobs of one soak (seeded, bounded, reproducible)."""

    requests: int = 2000
    seed: int = 0
    #: Shard kills scheduled, each armed at a store write stage.
    kills: int = 3
    #: Where a failed verdict's postmortem bundle lands (``None``: the
    #: report still lists the violations).
    postmortem_dir: Optional[str] = None
    #: Drill switch: one synthetic violation, to exercise the
    #: postmortem and exit-2 paths without breaking anything.
    force_violation: bool = False


# -- faults ----------------------------------------------------------------


def fault_gate(
    injector: FaultInjector, sleep: Callable[[float], None] = time.sleep
) -> Callable[[str], None]:
    """Timing-fault hook run before every request's codec call.

    Draws a hang, then a straggler delay, as the injector's config
    enables them -- under a lock and before any sleep, so concurrent
    client threads never touch the stream together.  The sleep (the
    fault itself) is outside the lock.
    """
    lock = threading.Lock()

    def gate(kind: str) -> None:
        with lock:
            stall = injector.worker_hang_s()
            delay = injector.straggler_delay()
        if stall:
            sleep(stall)
        if delay:
            sleep(delay)

    return gate


def damage_payload(
    blob: bytes, payload_start: int, injector: FaultInjector
) -> Tuple[bytes, bool]:
    """Corrupt ``blob`` past ``payload_start`` (maybe), seeded; returns
    ``(bytes, damaged)``.  The protected prefix is never touched."""
    cfg = injector.config
    rng = injector.rng
    body = blob[payload_start:]
    if cfg.bit_flip_prob and body and rng.random() < cfg.bit_flip_prob:
        flips = int(rng.integers(1, cfg.max_flips + 1))
        injector.record()
        return blob[:payload_start] + injector.flip_bits(body, flips), True
    if cfg.truncate_prob and len(body) > 16 and rng.random() < cfg.truncate_prob:
        cut = int(rng.integers(8, len(body)))
        injector.record()
        return blob[:payload_start] + body[:cut], True
    return blob, False


def _payload_start(blob: bytes) -> int:
    """First damageable byte: past container metadata + stream header,
    the regions concealment cannot patch (their damage fails loudly;
    the fuzz suite covers it)."""
    compressed = CompressedTensor.from_bytes(blob)
    return compressed.nbytes - len(compressed.data) + _HEADER_SIZE


def build_schedule(
    rng: np.random.Generator, shard_ids, duration_s: float, kills: int,
) -> List[dict]:
    """Seeded shard and disk events through the middle of the traffic.

    Kill ``i`` is due at ``duration_s * (0.1 + 0.5 * i / kills)``, at
    least the revive window plus :data:`KILL_SLACK_S` after the
    previous one: what is tested is the loss of one shard at a time
    (the R >= 2 claim), not correlated multi-shard loss.  Kills cycle
    through :data:`_KILL_STAGES`; hangs and disk faults land anywhere
    in the middle 80 %.
    """
    events: List[dict] = []
    at = -REVIVE_AFTER_S - KILL_SLACK_S
    for index in range(kills):
        due = duration_s * (0.1 + 0.5 * index / kills)
        at = max(at + REVIVE_AFTER_S + KILL_SLACK_S, due)
        victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
        events.append({
            "at_s": at, "action": "kill", "shard": victim,
            "stage": _KILL_STAGES[index % len(_KILL_STAGES)],
        })
        events.append(
            {"at_s": at + REVIVE_AFTER_S, "action": "revive", "shard": victim}
        )
    for action, count in (("hang", HANGS), ("disk", DISK_FAULTS)):
        for _ in range(count):
            at_s = float(rng.uniform(duration_s * 0.1, duration_s * 0.9))
            victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
            events.append({"at_s": at_s, "action": action, "shard": victim})
    events.sort(key=lambda event: event["at_s"])
    return events


class _Faults:
    """Plays the schedule on the controller thread, runs the scrubber."""

    def __init__(self, router: ClusterRouter, seed: int) -> None:
        self.router = router
        self.shard_faults = FaultInjector(seed=seed + 11)
        self.disk_faults = FaultInjector(seed=seed + 23)
        self.stop = threading.Event()
        self.kills = {"mid_write": 0, "fallback": 0}
        self.disk_applied: List[dict] = []
        self.scrub = {"checked": 0, "quarantined": 0}
        self._damaged_keys: set = set()

    def play(self, schedule: List[dict]) -> None:
        started = time.perf_counter()
        for event in schedule:
            lag = started + event["at_s"] - time.perf_counter()
            if lag > 0 and self.stop.wait(timeout=lag):
                return
            shard = self.router.shard(event["shard"])
            if event["action"] == "kill":
                self._kill(shard, event["stage"])
            elif event["action"] == "revive":
                shard.revive()
            elif event["action"] == "hang":
                self.shard_faults.record()
                shard.hang(SHARD_HANG_S)
            else:
                self._damage(shard)

    def _kill(self, shard, stage: str) -> None:
        if not shard._alive:
            # Victim already down (a schedule slip): kill any alive
            # shard so the kill count still holds.
            alive = [
                self.router.shard(sid) for sid in self.router.shard_ids
                if self.router.shard(sid)._alive
            ]
            if not alive:
                return
            shard = alive[0]
        shard.arm_kill(stage)
        deadline = time.perf_counter() + ARM_TIMEOUT_S
        while time.perf_counter() < deadline and shard._alive:
            if self.stop.wait(timeout=0.005):
                # Traffic over with the kill still armed: disarm, or
                # the settle phase would take it.
                shard._armed_kill_stage = None
                return
        mid_write = not shard._alive
        if mid_write:
            self.kills["mid_write"] += 1
        else:
            # No put reached the stage in time: a plain SIGKILL, so
            # the schedule still exercises recovery.
            shard.kill()
            self.kills["fallback"] += 1
        self.shard_faults.record()
        flightrecorder.record(
            "chaos.kill", shard=shard.shard_id, stage=stage,
            mid_write=mid_write,
        )

    def _damage(self, shard) -> None:
        store = shard.store
        candidates = [
            key for key in store.keys() if key not in self._damaged_keys
        ]
        if not candidates:
            return
        rng = self.disk_faults.rng
        chosen = candidates[int(rng.integers(0, len(candidates)))]
        try:
            # Held, so a compaction cannot move the span between the
            # lookup and the write: the bytes hit are the key's.
            with store.pinned_span(chosen) as (offset, length):
                self._damaged_keys.add(chosen)
                mode = self.disk_faults.damage_span(
                    store.journal_path, offset, length
                )
        except StoreError:
            return  # the shard was killed before the lookup
        if mode:
            self.disk_applied.append(
                {"shard": shard.shard_id, "key": chosen, "mode": mode}
            )
            flightrecorder.record(
                "chaos.disk_fault", shard=shard.shard_id, key=chosen,
                mode=mode,
            )

    def scrub_loop(self) -> None:
        while not self.stop.wait(timeout=SCRUB_INTERVAL_S):
            self.sweep(SCRUB_BUDGET, compact=True)

    def sweep(self, budget: Optional[int], compact: bool = False) -> None:
        """Scrub (then maybe compact) every serving store."""
        for shard_id in self.router.shard_ids:
            shard = self.router.shard(shard_id)
            store = shard.store
            if not shard.alive or not store.open:
                continue
            try:
                outcome = store.scrub(budget)
                self.scrub["checked"] += outcome["checked"]
                self.scrub["quarantined"] += len(outcome["corrupt"])
                if compact:
                    compacted = store.compact()
                    self.scrub["quarantined"] += len(compacted["quarantined"])
            except StoreError:
                continue  # crashed mid-sweep


# -- contract, ledger, verdict ---------------------------------------------

_MISMATCH = {
    "encode": "bytes differ from the serial reference",
    "decode": "tensor differs from reference",
    "get": "served bytes differ from written payload",
}


def check_response(response, reference, damaged: bool = False) -> Optional[str]:
    """Judge one answer against the contract; ``None`` when it holds.

    ``reference`` is what a clean run answers for ``response.kind``:
    container bytes (encode), a tensor (decode) or the written payload
    (get); a put ack carries nothing to compare.  ``damaged``: the
    request's input was corrupted on purpose.  A reason starts
    ``silent ...`` for a wrong payload served as good and ``untyped
    ...`` for an answer outside the contract.
    """
    kind = response.kind
    if not response.ok:
        if isinstance(response.error, TYPED_ERRORS.get(kind, ())):
            return None
        return f"untyped error {response.error_type}"
    if kind == "put":
        return None
    if response.degraded:
        if kind != "decode":
            return f"untyped: {kind} marked degraded"
        if not damaged:
            # Concealment on a clean blob: the server patched over its
            # own fault.
            return "untyped: clean blob concealed"
        if response.report is None or response.report.clean:
            return "untyped: degraded without concealment report"
        return None
    if kind == "decode":
        same = np.array_equal(response.value, reference)
    elif kind == "encode":
        same = response.value.to_bytes() == reference
    else:
        same = response.value == reference
    if not same:
        return f"silent corruption: {_MISMATCH[kind]}"
    if damaged:
        # Bit-exact output from a damaged blob would mean a CRC
        # collision repaired the data; it should never happen.
        return "silent corruption: damaged blob decoded clean"
    return None


#: The response fields a violation entry keeps: who answered.
_RESPONSE_FIELDS = ("kind", "shard", "rung", "error_type", "trace_id")


class ViolationLedger:
    """What the soak judged and what broke the contract.

    Shared by the client threads, hence the lock.  A violation entry is
    where it happened, its reason and who answered; it is mirrored into
    the flight recorder as ``chaos.violation``, so a postmortem ring
    shows it among the events that led up to it.
    """

    def __init__(self) -> None:
        self.violations: List[dict] = []
        self.checked = dict.fromkeys(
            ("encode", "decode", "put", "get", "damaged"), 0
        )
        #: damaged -> [usable, answered] over encode/decode requests.
        self.codec = {False: [0, 0], True: [0, 0]}
        #: [acked, attempted] puts, and the puts refused typed
        #: ``WriteQuorumFailed``.
        self.puts = [0, 0]
        self.write_quorum_failed = 0
        self._lock = threading.Lock()

    def judge(self, response, reference, damaged: bool = False, **where) -> None:
        """Count one answer as checked and record it if it violates."""
        reason = check_response(response, reference, damaged)
        with self._lock:
            self.checked[response.kind] += 1
            self.checked["damaged"] += int(damaged)
            if response.kind in ("encode", "decode"):
                tally = self.codec[damaged]
                tally[0] += int(response.ok)
                tally[1] += 1
            elif response.kind == "put":
                self.puts[0] += int(response.ok)
                self.puts[1] += 1
                self.write_quorum_failed += int(
                    response.error_type == "WriteQuorumFailed"
                )
        if reason:
            self.record(reason, response, **where)

    def record(self, reason: str, response=None, **where) -> None:
        entry = dict(where, reason=reason)
        for field in _RESPONSE_FIELDS:  # "" when nothing answered
            entry[field] = getattr(response, field, "")
        with self._lock:
            self.violations.append(entry)
        flightrecorder.record("chaos.violation", **entry)

    def count(self, *prefixes: str) -> int:
        """Violations whose reason starts with any of ``prefixes``."""
        return sum(
            1 for entry in self.violations
            if entry["reason"].startswith(prefixes)
        )

    def availability(self) -> Tuple[float, float, float]:
        """(undamaged, all) encode/decode availability and put
        availability (acked / attempted); 1.0 where there were none."""
        clean, damaged = self.codec[False], self.codec[True]
        answered = clean[1] + damaged[1]
        acked, attempted = self.puts
        return (
            clean[0] / clean[1] if clean[1] else 1.0,
            (clean[0] + damaged[0]) / answered if answered else 1.0,
            acked / attempted if attempted else 1.0,
        )


def audit(router, acked: Dict[str, Tuple[int, bytes]], ledger) -> None:
    """Read every acked write back through the router: bit-exact or a
    violation."""
    for key, (version, payload) in sorted(acked.items()):
        response = router.get(key)
        if not response.ok:
            ledger.record(
                f"acked write lost: final read failed ({response.error_type})",
                response, key=key, version=version,
            )
        elif response.value != payload:
            ledger.record(
                "acked write corrupted: final read not bit-exact",
                response, key=key, version=version,
            )


def census(router, acked: Dict[str, Tuple[int, bytes]], ledger) -> None:
    """Every acked key's winning copy is held by min(R, alive) replicas."""
    digests = collect_digests(router)
    required = min(REPLICATION, max(len(digests), 1))
    for key, (version, payload) in sorted(acked.items()):
        expected = (version, hashlib.blake2b(payload, digest_size=16).hexdigest())
        holders = sum(
            1 for digest in digests.values() if digest.get(key) == expected
        )
        if holders < required:
            ledger.record(
                f"replication not restored: {holders}/{required} holders",
                key=key,
            )


def judge(
    ledger: ViolationLedger, kills: Dict[str, int], kills_required: int,
    repair: RepairReport, acked_writes: int,
) -> dict:
    """Record the end-of-run reasons; return the invariant: a section
    per family, the counts by reason, the violations and ``passed``."""
    undamaged, overall, puts = ledger.availability()
    for name, value, floor in (
        ("undamaged", undamaged, UNDAMAGED_FLOOR), ("all", overall, ALL_FLOOR)
    ):
        if value < floor:
            ledger.record(
                f"availability below floor: {name} {value:.4f} < {floor:g}"
            )
    kills_done = sum(kills.values())
    if kills_done < kills_required:
        ledger.record(f"kills short: {kills_done}/{kills_required}")
    if not repair.converged:
        ledger.record(f"repair not converged after {repair.passes} passes")
    counts = {prefix: ledger.count(prefix) for prefix in REASONS}
    return {
        "contract": {
            "silent_corruptions": counts["silent corruption"],
            "untyped_errors": counts["untyped"],
        },
        "availability": {
            "undamaged": undamaged, "undamaged_floor": UNDAMAGED_FLOOR,
            "all": overall, "all_floor": ALL_FLOOR,
            # Measured, not floored: a put needs every replica's ack,
            # so one whose replica set holds a killed shard fails
            # typed until health drains it (docs/CLUSTER.md).
            "puts": puts,
            "write_quorum_failed": ledger.write_quorum_failed,
        },
        "kills": dict(kills, required=kills_required),
        "durability": {
            "acked_writes": acked_writes,
            "lost": counts["acked write lost"],
            "corrupted": counts["acked write corrupted"],
            "under_replicated": counts["replication not restored"],
            "repair_converged": repair.converged,
        },
        "counts": counts,
        "violations": ledger.violations,
        "passed": not ledger.violations,
    }


# -- the soak --------------------------------------------------------------


def _references(seed: int, sides) -> Dict[Tuple[int, int], tuple]:
    """(side, index) -> (tensor, clean container bytes, its decode).

    Every shard runs the same search and its slice fan-out does not
    change bytes, so one serial encode is the bit-exact reference for
    an answer from any shard or replica.
    """
    codec = TensorCodec(tile=TILE)
    table = {}
    for side in sides:
        for index in range(POOL):
            rng = np.random.default_rng((seed, side, index))
            tensor = rng.standard_normal((side, side)).astype(np.float32)
            blob = codec.encode(tensor, qp=QP).to_bytes()
            decoded = codec.decode(CompressedTensor.from_bytes(blob))
            table[side, index] = (tensor, blob, decoded)
    return table


def _workload(config: ChaosConfig, references) -> Tuple[List[Arrival], list, int]:
    """The seeded stream: arrivals, and per arrival ``(pool key, bytes
    to send, damaged)``; also how many payloads were damaged.  A put's
    bytes (and a get's expected bytes) are the pooled container plus
    the key, unique to the key.

    Arrival times, sessions and sizes come from
    :func:`~repro.cluster.traffic.generate_arrivals`; a share is
    relabelled as storage traffic, and decode payloads are damaged (or
    not) here, up front, so the whole stream is a function of the seed.
    """
    traffic = TrafficConfig(
        requests=config.requests, base_rate_rps=RATE_RPS,
        burst_factor=BURST_FACTOR, seed=config.seed + 7,
    )
    arrivals = generate_arrivals(traffic)
    rng = np.random.default_rng(config.seed + 0x57)
    payload_faults = FaultInjector(
        seed=config.seed + 2, config=FaultConfig(**PAYLOAD_FAULTS)
    )
    stored: Dict[str, Tuple[Tuple[int, int], bytes]] = {}
    keys: List[str] = []
    sends = []
    for arrival in arrivals:
        pool = (arrival.side, zlib.crc32(arrival.tensor_id.encode()) % POOL)
        blob = references[pool][1]
        damaged = False
        if rng.random() < STORE_SHARE:
            if not keys or rng.random() < PUT_SHARE:
                arrival.kind, arrival.tensor_id = "put", f"kv-{arrival.index:05d}"
                blob += arrival.tensor_id.encode()
                stored[arrival.tensor_id] = (pool, blob)
                keys.append(arrival.tensor_id)
            else:
                arrival.kind = "get"
                arrival.tensor_id = keys[int(rng.integers(0, len(keys)))]
                pool, blob = stored[arrival.tensor_id]
        elif arrival.kind == "decode":
            blob, damaged = damage_payload(
                blob, _payload_start(blob), payload_faults
            )
        sends.append((pool, blob, damaged))
    return arrivals, sends, payload_faults.injected


def _warm_router(router: ClusterRouter, references) -> None:
    """One encode + decode per payload shape per shard, before the clock.

    First contact pays one-time costs (kernel load per shape, pool
    spin-up, lazily spawned dispatch threads) that belong to process
    start, not to the soak.
    """
    sides = {side: (side, index) for side, index in references}
    for round_index, key in enumerate(sides.values()):
        tensor = references[key][0]
        for shard_id in router.shard_ids:
            tensor_id = f"__warm-{shard_id}-{round_index}"
            encoded = router.encode(tensor, tensor_id)
            if encoded.ok:
                router.decode(encoded.value.to_bytes(), tensor_id)


def run_chaos(config: Optional[ChaosConfig] = None) -> dict:
    """Run the soak; returns the JSON-ready report.

    Its ``invariant`` section is the verdict (:func:`judge`); a failed
    one carries a postmortem bundle path when ``postmortem_dir`` is set.
    """
    config = config or ChaosConfig()
    with telemetry.scope(), tempfile.TemporaryDirectory(
        prefix="llm265-chaos-"
    ) as root, ClusterRouter(ClusterConfig(
        shards=SHARDS, replication=REPLICATION, tile=TILE,
        default_qp=QP, deadline_s=DEADLINE_S, store_root=root,
    )) as router:
        return attach_postmortem(_run(config, router), config)


def _run(config: ChaosConfig, router: ClusterRouter) -> dict:
    """Warm, drive, settle, audit; the report without its postmortem.

    The caller owns ``router`` and closes it however this returns.
    """
    references = _references(
        config.seed, [side for side, _ in TrafficConfig().sizes]
    )
    arrivals, sends, payloads_damaged = _workload(config, references)
    duration_s = arrivals[-1].at_s if arrivals else 0.0
    _warm_router(router, references)
    # The report's SLO and router counts are the soak's own traffic: the
    # warm-up belongs to start-up.  The router's own accounting (the
    # hedge budget) keeps it.
    router.slo = SloTracker()
    warm_up = router.stats()["router"]

    faults = _Faults(router, config.seed)
    schedule = build_schedule(
        faults.shard_faults.rng, router.shard_ids, duration_s, config.kills
    )
    timing = FaultInjector(
        seed=config.seed + 1, config=FaultConfig(**TIMING_FAULTS)
    )
    gate = fault_gate(timing)
    ledger = ViolationLedger()
    acked: Dict[str, Tuple[int, bytes]] = {}
    acked_lock = threading.Lock()

    def request(arrival: Arrival):
        pool, blob, damaged = sends[arrival.index]
        tensor, clean, decoded = references[pool]
        key = arrival.tensor_id
        if arrival.kind == "encode":
            response = router.encode(tensor, key, qp=QP, fault_gate=gate)
            expected = clean
        elif arrival.kind == "decode":
            response = router.decode(blob, key, fault_gate=gate)
            expected = decoded
        elif arrival.kind == "put":
            response, expected = router.put(blob, key), blob
            if response.ok:
                with acked_lock:
                    acked[key] = (response.version, blob)
        else:
            response, expected = router.get(key), blob
        ledger.judge(
            response, expected, damaged, request=arrival.index, key=key
        )
        return response

    # Client threads carry no registry of their own: each request runs
    # under a child one whose delta joins the soak's, so its spans reach
    # the trace tree (and a postmortem bundle) under ``chaos.request``.
    registry = telemetry.current()
    merge_lock = threading.Lock()

    def send(arrival: Arrival):
        outcome = TracedTask(
            request, trace=registry.trace, root="chaos.request"
        )(arrival)
        with merge_lock:
            merge_delta(registry, outcome.delta)
        return outcome.result

    threads = [
        threading.Thread(
            target=faults.play, args=(schedule,), name="chaos-controller",
            daemon=True,
        ),
        threading.Thread(
            target=faults.scrub_loop, name="chaos-scrubber", daemon=True
        ),
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        OpenLoopDriver(send, client_threads=CLIENT_THREADS).run(arrivals)
    finally:
        # The chaos is over before the soak settles and judges: a fault
        # landing mid-audit would model nothing.
        faults.stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
    # The soak's own traffic, before the settle re-admits every shard
    # and repairs: drains, re-admissions and repair passes counted here
    # happened under the faults.
    cluster = router.stats()
    cluster["router"] = {
        name: count - warm_up.get(name, 0)
        for name, count in cluster["router"].items()
    }

    # -- settle: revive everything, re-admit, surface rot, heal -------
    for shard_id in router.shard_ids:
        router.shard(shard_id).revive()
    # Re-admit directly: the probe path needs live traffic to fire.
    with router._lock:
        for shard_id, health in router.health.items():
            health.reset()
            router._sync_ring_locked(shard_id)
    # A full scrub turns every latent disk fault into a quarantine
    # before repair, so repair has it to heal.
    faults.sweep(None)
    repair = repair_until_converged(router, max_passes=REPAIR_PASSES)
    elapsed_s = time.perf_counter() - started

    audit(router, acked, ledger)
    census(router, acked, ledger)
    compactions = sum(
        router.shard(shard_id).store.counters["compactions"]
        for shard_id in router.shard_ids
    )
    if config.force_violation:
        ledger.record("drill: forced contract violation", key="drill")

    return {
        "config": asdict(config),
        "elapsed_s": elapsed_s,
        "offered_duration_s": duration_s,
        "slo": cluster["slo"],
        "cluster": cluster,
        "schedule": schedule,
        "faults_injected": {
            "timing": timing.injected,
            "payload": payloads_damaged,
            "shard": faults.shard_faults.injected,
            "disk": len(faults.disk_applied),
        },
        "disk_faults_applied": faults.disk_applied,
        "scrub": faults.scrub,
        "compactions": compactions,
        "repair": repair.to_dict(),
        "checked": ledger.checked,
        "invariant": judge(
            ledger, faults.kills, config.kills, repair, len(acked)
        ),
    }


def attach_postmortem(report: dict, config: ChaosConfig) -> dict:
    """Set ``report["postmortem"]`` and return ``report``: the path of a
    flight-recorder bundle (ring, the active registry's snapshot and
    trace tree, seed, and the report's verdict, traffic and schedule
    sections) when the verdict failed and ``config.postmortem_dir`` is
    set, else ``None``.  The sections carry the outcome totals, hedges,
    failovers and store counters, which the registry snapshot does not:
    those counts live in their owners' records only."""
    report["postmortem"] = None
    if not report["invariant"]["passed"] and config.postmortem_dir:
        report["postmortem"] = flightrecorder.dump_bundle(
            config.postmortem_dir,
            reason="chaos-violation",
            seed=config.seed,
            extra={
                key: report[key]
                for key in ("invariant", "slo", "cluster", "schedule",
                            "disk_faults_applied", "checked")
            },
        )
    return report


def format_report(report: dict) -> str:
    """The human-readable verdict the CLI prints."""
    inv, slo = report["invariant"], report["slo"]
    checked, faults = report["checked"], report["faults_injected"]
    router = report["cluster"]["router"]
    outcomes, latency = slo["outcomes"], slo["latency_ms"]
    kills, durability = inv["kills"], inv["durability"]
    availability, repair = inv["availability"], report["repair"]
    modes = sorted({fault["mode"] for fault in report["disk_faults_applied"]})
    lines = [
        f"chaos: {slo['requests']} requests ("
        + " ".join(f"{kind}={checked[kind]}" for kind in sorted(checked))
        + f") across {SHARDS} shards (R={REPLICATION}) "
        f"in {report['elapsed_s']:.1f}s",
        f"faults: {faults['timing']} timing, {faults['payload']} payload, "
        f"{kills['mid_write']} mid-write kills (+{kills['fallback']} "
        f"fallback, {kills['required']} required), {faults['shard']} shard, "
        f"{faults['disk']} disk ({', '.join(modes) or 'none'})",
        "outcomes: "
        + " ".join(f"{name}={outcomes[name]}" for name in sorted(outcomes)),
        f"latency: p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms "
        f"max={latency['max']:.1f}ms",
        f"router: hedges={router['hedges']} hedge_wins={router['hedge_wins']} "
        f"failovers={router['failovers']} drains={router['shard_drained']} "
        f"readmits={router['shard_readmitted']} probes={router['probes']}",
        f"store: {report['scrub']['checked']} payloads scrubbed, "
        f"{report['scrub']['quarantined']} quarantined, "
        f"{report['compactions']} compactions; repair {repair['passes']} "
        f"pass(es), {repair['copies_made']} copies, "
        f"converged={repair['converged']}",
        f"availability: undamaged {availability['undamaged']:.4f} "
        f"(floor {availability['undamaged_floor']:g}), all "
        f"{availability['all']:.4f} (floor {availability['all_floor']:g}), "
        f"puts {availability['puts']:.4f} "
        f"({availability['write_quorum_failed']} WriteQuorumFailed)",
        f"durability: {durability['acked_writes']} acked writes, "
        f"{durability['lost']} lost, {durability['corrupted']} corrupted, "
        f"{durability['under_replicated']} under-replicated",
        f"invariant: silent_corruptions={inv['contract']['silent_corruptions']} "
        f"untyped_errors={inv['contract']['untyped_errors']} -> "
        + ("PASS" if inv["passed"] else "FAIL"),
    ]
    lines += [f"  violation: {entry}" for entry in inv["violations"][:10]]
    if report["postmortem"]:
        lines.append(f"postmortem bundle: {report['postmortem']}")
    return "\n".join(lines)
