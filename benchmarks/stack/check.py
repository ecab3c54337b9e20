"""Output checking: every response is verified before its op counts.

An op fails when its response is not ok, is ``degraded``, has the wrong
shape or dtype, exceeds the workload's per-op error ceiling, or (store)
does not return exactly the bytes of the key's last acknowledged put.
Failed ops are counted, never raised: the run finishes, reports
``ops_failed`` and the first few reasons, and exits non-zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

#: Per-op ceiling on sum(err^2)/sum(x^2): twice what the prototype run
#: of each generator measured (0.0512 / 0.0348 / 0.0912 / 0.0152 at the
#: workload's rate target).  A codec change that makes a single tensor
#: this much worse is an error, not a trade-off.
NMSE_CEILING = {
    "weights_fixed_qp": 0.10,
    "weights_bit_budget": 0.07,
    "cluster_kv_pages": 0.18,
    "store_put_get": 0.03,
}
MAX_REASONS = 5


class Tally:
    """Attempted / failed ops plus the accumulators of the quality metrics."""

    def __init__(self, workload: str) -> None:
        self.ceiling = NMSE_CEILING[workload]
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.err2 = 0.0  # accumulated in schedule order, float64
        self.ref2 = 0.0
        self.stored_bits = 0
        self.values = 0

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{op}: {reason}")

    def tensor_reason(
        self, original: np.ndarray, restored: object
    ) -> Optional[str]:
        """Why ``restored`` is not an acceptable decode of ``original``.

        Also folds the op's error into the nmse accumulators when the
        shapes allow it, so a failing op still shows in ``nmse``.
        """
        if not isinstance(restored, np.ndarray):
            return f"decode returned {type(restored).__name__}, not an array"
        if restored.shape != original.shape:
            return f"shape {restored.shape} != {original.shape}"
        if restored.dtype != original.dtype:
            return f"dtype {restored.dtype} != {original.dtype}"
        source = original.astype(np.float64)
        delta = restored.astype(np.float64) - source
        err2 = float(np.dot(delta.ravel(), delta.ravel()))
        ref2 = float(np.dot(source.ravel(), source.ravel()))
        self.err2 += err2
        self.ref2 += ref2
        if not np.isfinite(err2) or err2 > self.ceiling * ref2:
            return f"nmse {err2 / ref2:.5f} over the ceiling {self.ceiling}"
        return None

    def pair(
        self,
        op: str,
        original: np.ndarray,
        failure: Optional[str],
        stored_bytes: int,
        restored: object,
        check_values: bool = True,
    ) -> None:
        """Account one encode+decode pair (two ops).

        ``check_values=False`` is for the codec entry point, which
        returns sample frames, not the tensor.
        """
        self.attempted += 2
        if failure is None and check_values:
            failure = self.tensor_reason(original, restored)
        if failure is not None:
            self.fail(op, failure)
            return
        self.stored_bits += 8 * stored_bytes
        self.values += original.size

    def absorb(self, other: "Tally") -> None:
        """Fold another client's tally in (call in client order)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons = (self.reasons + other.reasons)[:MAX_REASONS]
        self.err2 += other.err2
        self.ref2 += other.ref2
        self.stored_bits += other.stored_bits
        self.values += other.values

    @property
    def nmse(self) -> float:
        return self.err2 / self.ref2 if self.ref2 else float("nan")

    @property
    def bits_per_value(self) -> float:
        return self.stored_bits / self.values if self.values else float("nan")


class StoreModel:
    """Strict read-your-writes model of the keys one client owns.

    Only that client ever writes these keys, and it waits for each
    reply, so the one acceptable answer to a get is the byte string of
    the key's last *acknowledged* put -- not an older one (stale), not
    an unacknowledged one, not a near miss.
    """

    def __init__(self) -> None:
        self.acked: Dict[int, bytes] = {}
        self.pool_of: Dict[int, int] = {}

    def ack(self, slot: int, blob: bytes, pool: int) -> None:
        self.acked[slot] = blob
        self.pool_of[slot] = pool

    def get_reason(self, slot: int, value: object) -> Optional[str]:
        expected = self.acked[slot]
        if not isinstance(value, (bytes, bytearray, memoryview)):
            return f"get returned {type(value).__name__}, not bytes"
        if value == expected:
            return None
        if len(value) != len(expected):
            return f"get returned {len(value)} bytes, last ack had {len(expected)}"
        return "get returned bytes other than the last acknowledged put"


def response_reason(response) -> Optional[str]:
    """Contract check shared by service and cluster responses."""
    if not response.ok:
        return f"{response.kind} not ok: {response.error_type}: {response.error}"
    if response.degraded:
        return f"{response.kind} degraded"
    return None


def put_reason(response, replicas: int) -> Optional[str]:
    """A put must also be acknowledged by every replica (quorum = all)."""
    reason = response_reason(response)
    if reason is None and response.replicas_acked != replicas:
        reason = f"put acked by {response.replicas_acked}/{replicas} replicas"
    return reason
