"""The skeleton every soak shares, written once.

``llm265 chaos`` (serving, ``--cluster``, ``--durability``) keeps its
workload, fault domain and invariant in their own modules; the steps
around those live here, in run order: telemetry scope, bit-exact
references, fault injection and timing, contract check, violation
ledger, verdict, postmortem, report text.

**The typed-response contract** (:func:`check_response`), asserted on
every answer of every soak:

- ``ok`` and not ``degraded``: the payload is *bit-exact* with a clean
  serial run, whichever shard or replica served it
  (encode: identical container bytes; decode: identical tensor; get:
  the bytes that were put).
- ``ok`` and ``degraded``: only a decode whose input really was damaged,
  and the concealment report says what was patched.
- not ``ok``: the error is in the soak's typed vocabulary
  (``TYPED_ERRORS`` / ``CLUSTER_TYPED_ERRORS`` /
  ``DURABILITY_TYPED_ERRORS``).

Anything else is a violation: recorded in the :class:`ViolationLedger`,
counted by reason prefix in the ``invariant`` section, ``passed=False``,
a flight-recorder postmortem bundle when ``postmortem_dir`` is set, and
exit 2 from the CLI.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.tensor.codec import CompressedTensor, TensorCodec


@contextmanager
def telemetry_scope():
    """Yield the registry a run reports from: the active one (e.g. the
    CLI's ``--trace`` session, so the trace file covers this run too)
    or a fresh session -- so a postmortem bundle always has the trace
    tree of what led up to a violation.  ``@telemetry_scope()`` runs a
    whole soak inside it."""
    active = telemetry.current()
    if active is not None:
        yield active
    else:
        with telemetry.session() as registry:
            yield registry


class ReferenceStore:
    """Clean serial encodes, one per key, built on first use.

    Every shard runs the same search, and its slice fan-out does not
    change bytes, so one healthy serial encode is the bit-exact
    reference for a response from any shard or replica.
    ``make_tensor(key)`` supplies the payload behind a key.  Locked:
    the client threads of an open-loop soak share one store.
    """

    def __init__(
        self, make_tensor: Callable[[object], np.ndarray], tile: int, qp: float
    ) -> None:
        self._make_tensor = make_tensor
        self._codec = TensorCodec(tile=tile)
        self._qp = qp
        self._lock = threading.Lock()
        self._tensors: Dict[object, np.ndarray] = {}
        self._blobs: Dict[object, bytes] = {}
        self._decoded: Dict[object, np.ndarray] = {}

    def keys(self) -> list:
        """Keys materialized so far, sorted."""
        with self._lock:
            return sorted(self._tensors)

    def tensor(self, key) -> np.ndarray:
        with self._lock:
            if key not in self._tensors:
                self._tensors[key] = self._make_tensor(key)
            return self._tensors[key]

    def blob(self, key) -> bytes:
        """Container bytes of the clean encode."""
        tensor = self.tensor(key)
        with self._lock:
            if key not in self._blobs:
                self._blobs[key] = self._codec.encode(
                    tensor, qp=self._qp
                ).to_bytes()
            return self._blobs[key]

    def decoded(self, key) -> np.ndarray:
        """Reference reconstruction of the clean blob."""
        blob = self.blob(key)
        with self._lock:
            if key not in self._decoded:
                self._decoded[key] = self._codec.decode(
                    CompressedTensor.from_bytes(blob)
                )
            return self._decoded[key]

    def expected(self, kind: str, key):
        """What a clean ``kind`` request on ``key`` must answer."""
        return self.blob(key) if kind == "encode" else self.decoded(key)


# -- faults ----------------------------------------------------------------


def fault_injector(seed: int, config, *knobs: str) -> FaultInjector:
    """A seeded injector armed with the named knobs of a soak config
    (soak configs spell their fault knobs as ``FaultConfig`` does)."""
    return FaultInjector(
        seed=seed,
        config=FaultConfig(**{knob: getattr(config, knob) for knob in knobs}),
    )


def fault_gate(
    injector: FaultInjector, sleep: Callable[[float], None] = time.sleep
) -> Callable[[str], None]:
    """Timing-fault hook run before every request's codec call.

    Draws a hang, then a straggler delay, as the injector's config
    enables them.  All randomness is drawn *before* any sleep and under
    a lock, so concurrent client threads never touch the stream
    together -- the schedule stays seeded-deterministic.  The sleep
    (the actual fault) is outside the lock.
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


def kill_revive_events(
    rng: np.random.Generator,
    shard_ids: Sequence[str],
    duration_s: float,
    kills: int,
    revive_after_s: float,
    first: float,
    spread: float,
    slack_s: float,
    jitter: float = 0.0,
    not_before_s: float = 0.0,
) -> List[dict]:
    """Seeded kill -> revive event pairs through the middle of a soak.

    Kill ``i`` is due at ``duration_s * (first + spread * i / kills)``
    plus up to ``jitter * duration_s``, never before ``not_before_s``,
    and at least the revive window plus ``slack_s`` after the previous
    kill: what gets tested is the loss of one shard at a time (the
    R >= 2 claim), not correlated multi-shard loss.
    """
    events: List[dict] = []
    min_gap = revive_after_s + slack_s
    at = not_before_s - min_gap
    for index in range(kills):
        due = duration_s * (first + spread * index / max(kills, 1))
        if jitter:
            due += float(rng.uniform(0.0, duration_s * jitter))
        at = max(at + min_gap, due)
        victim = shard_ids[int(rng.integers(0, len(shard_ids)))]
        events.append({"at_s": at, "action": "kill", "shard": victim})
        events.append(
            {"at_s": at + revive_after_s, "action": "revive", "shard": victim}
        )
    return events


@contextmanager
def fault_controller(
    events: List[dict], apply: Callable[[dict], None], name: str,
    stop: Optional[threading.Event] = None,
):
    """Apply timed fault events on a controller thread beside the traffic.

    ``events`` (sorted) carry an ``at_s`` offset from entry;
    ``apply(event)`` injects one.  Leaving sets ``stop`` (pass one in
    to share it with other soak threads) and joins: the chaos must be
    over before a soak settles and judges -- a fault landing mid-audit
    would invalidate the verdict and model nothing.
    """
    stop = stop or threading.Event()
    started = time.perf_counter()

    def run() -> None:
        for event in events:
            lag = started + event["at_s"] - time.perf_counter()
            if lag > 0 and stop.wait(timeout=lag):
                return
            apply(event)

    thread = threading.Thread(target=run, name=name, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=5.0)


# -- contract, ledger, verdict ---------------------------------------------

_MISMATCH = {
    "encode": "bytes differ from the serial reference",
    "decode": "tensor differs from reference",
    "get": "served bytes differ from written payload",
}


def check_response(
    response, reference, typed_errors: tuple, damaged: bool = False
) -> Optional[str]:
    """Judge one response against the typed-response contract.

    ``reference`` is what a clean run answers for ``response.kind``:
    container bytes (encode), a tensor (decode) or the written payload
    (get); a put ack carries nothing to compare.  ``damaged``: the
    request's input was corrupted on purpose.  Returns ``None`` when
    the contract holds, else the reason -- ``silent ...`` for a wrong
    payload served as good, ``untyped ...`` for an answer outside the
    vocabulary; verdicts count by those prefixes.
    """
    if not response.ok:
        if isinstance(response.error, typed_errors):
            return None
        return f"untyped error {response.error_type}"
    kind = response.kind
    if kind == "put":
        return None
    if response.degraded:
        if kind != "decode":
            return f"untyped: {kind} marked degraded"
        if not damaged:
            # Concealment firing on a clean blob means the server
            # patched over its own fault.
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
        # collision repaired the data -- flag it; it should never
        # happen with <= 8 flipped bits.
        return "silent corruption: damaged blob decoded clean"
    return None


class ViolationLedger:
    """What a soak judged and what broke the contract.

    Shared by a soak's client threads, hence the lock.  A violation
    entry is where the soak says it happened (``where``), the reason,
    and the ``response_fields`` that say who served it; it is mirrored
    into the flight recorder as ``event``, so a postmortem ring shows
    it among the events that led up to it.
    """

    def __init__(
        self, event: str, kinds: Sequence[str],
        response_fields: Sequence[str],
    ) -> None:
        self.event = event
        self.violations: List[dict] = []
        self.checked: Dict[str, int] = dict.fromkeys(kinds, 0)
        self._response_fields = response_fields
        self._lock = threading.Lock()

    def judge(
        self, response, reference, typed_errors: tuple,
        damaged: bool = False, **where,
    ) -> None:
        """Count one response as checked and record it if it violates."""
        reason = check_response(response, reference, typed_errors, damaged)
        with self._lock:
            self.checked[response.kind] += 1
        if reason:
            self.record(reason, response, **where)

    def record(self, reason: str, response=None, **where) -> None:
        entry = dict(where, reason=reason)
        for field in self._response_fields:  # "" when nothing answered
            entry[field] = getattr(response, field, "")
        with self._lock:
            self.violations.append(entry)
        flightrecorder.record(self.event, **entry)

    def count(self, *prefixes: str) -> int:
        """Violations whose reason starts with any of ``prefixes``."""
        return sum(
            1 for entry in self.violations
            if entry["reason"].startswith(prefixes)
        )


def availability_invariant(
    ledger: ViolationLedger, availability: float, availability_slo: float,
    **extra,
) -> dict:
    """Verdict of a stateless soak: no violation of any kind, and
    availability at or above the SLO *through* the faults."""
    return {
        "silent_corruptions": ledger.count("silent"),
        "untyped_errors": ledger.count("untyped"),
        "violations": ledger.violations,
        "availability": availability,
        "availability_slo": availability_slo,
        **extra,
        "passed": not ledger.violations and availability >= availability_slo,
    }


def attach_postmortem(report: dict, config, reason: str, **extra) -> dict:
    """Set ``report["postmortem"]`` and return ``report``: the path of a
    flight-recorder bundle (ring, the active registry's snapshot and
    trace tree, seed, the invariant, the report's ``slo`` and
    ``cluster`` sections where it has them, plus ``extra``) when the
    verdict failed and ``config.postmortem_dir`` is set, else ``None``.

    The sections carry the outcome totals, hedges, failovers and store
    counters, which the registry snapshot does not: those counts live
    in their owners' records only."""
    report["postmortem"] = None
    if not report["invariant"]["passed"] and config.postmortem_dir:
        sections = {k: report[k] for k in ("slo", "cluster") if k in report}
        report["postmortem"] = flightrecorder.dump_bundle(
            config.postmortem_dir,
            reason=reason,
            seed=config.seed,
            extra={"invariant": report["invariant"], **sections, **extra},
        )
    return report


# -- report text and files -------------------------------------------------


def format_traffic(slo: dict) -> List[str]:
    """The outcomes and latency lines of an SLO snapshot."""
    outcomes, latency = slo["outcomes"], slo["latency_ms"]
    return [
        "outcomes: "
        + " ".join(f"{name}={outcomes[name]}" for name in sorted(outcomes)),
        f"latency: p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms "
        f"max={latency['max']:.1f}ms",
    ]


def format_verdict(report: dict) -> List[str]:
    """The tail of every soak report: availability (when the invariant
    claims one), the verdict, the first violations, the bundle path."""
    inv = report["invariant"]
    lines = []
    tallies = ""
    if "availability" in inv:
        lines.append(
            f"availability: {inv['availability']:.4f} "
            f"(slo {inv['availability_slo']:g})"
        )
        tallies = (
            f"silent_corruptions={inv['silent_corruptions']} "
            f"untyped_errors={inv['untyped_errors']} -> "
        )
    lines.append(
        "invariant: " + tallies + ("PASS" if inv["passed"] else "FAIL")
    )
    lines += [f"  violation: {entry}" for entry in inv["violations"][:10]]
    if report.get("postmortem"):
        lines.append(f"postmortem bundle: {report['postmortem']}")
    return lines


def write_json(path: str, document: dict) -> None:
    """Write ``document`` to ``path`` as sorted, indented JSON."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
