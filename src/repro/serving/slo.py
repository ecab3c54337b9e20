"""SLO accounting: latency percentiles, availability, shed/degraded counts.

The telemetry core (:mod:`repro.telemetry`) keeps streaming summaries
(count/sum/min/max) -- enough for throughput work, not for SLOs, which
are quantile statements ("p99 under 250 ms").  This tracker keeps the
actual latency samples (bounded reservoir) so p50/p99 are exact for
soak-sized runs.  It is the one record of outcomes: nothing mirrors
them into the telemetry registry, so a router's tracker and its shards'
trackers never add up twice.

Outcome vocabulary (one per request, disjoint):

- ``ok``        -- full-fidelity success.
- ``degraded``  -- explicit reduced-fidelity success (concealed decode);
  counts as *available* but is separately visible.
- ``shed``      -- typed :class:`~repro.serving.broker.Overloaded`
  (router only: a shard sheds before its service is called).
- ``deadline``  -- typed deadline expiry.
- ``error``     -- typed failure (e.g. corrupt input past concealment).

Availability is ``(ok + degraded) / total``: the fraction of requests
that got a usable answer.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List

__all__ = ["OUTCOMES", "SloTracker"]

OUTCOMES = ("ok", "degraded", "shed", "deadline", "error")


def _nearest_rank(samples: List[float], p: float) -> float:
    """Nearest-rank percentile over *sorted* ``samples``.

    The textbook definition: the smallest sample such that at least
    ``p`` percent of the data is <= it, i.e. index ``ceil(p/100 * n)``
    (1-based).  ``math.ceil`` rather than ``round`` matters: banker's
    rounding maps (n=10, p=25) to rank 2 instead of 3, and on tiny
    samples (n=1, n=2) rounding half-to-even made p50 collapse onto the
    minimum.  p=0 is pinned to the minimum, and any p > 0 on a single
    sample returns that sample.
    """
    if not samples:
        return 0.0
    rank = math.ceil(p / 100.0 * len(samples))
    return samples[max(0, min(len(samples) - 1, rank - 1))]

#: Reservoir cap: beyond this many samples, new latencies overwrite the
#: oldest (ring buffer).  Soaks are well under it, so percentiles stay
#: exact where it matters.
MAX_SAMPLES = 100_000


class SloTracker:
    """Thread-safe request-outcome and latency-percentile accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: List[float] = []
        self._ring_at = 0
        self._outcomes: Dict[str, int] = {name: 0 for name in OUTCOMES}
        self._retries = 0
        self._concealed = 0

    def record(
        self,
        outcome: str,
        latency_s: float,
        retries: int = 0,
        concealed: int = 0,
    ) -> None:
        if outcome not in self._outcomes:
            raise ValueError(f"unknown outcome {outcome!r}")
        with self._lock:
            self._outcomes[outcome] += 1
            self._retries += retries
            self._concealed += concealed
            if len(self._latencies) < MAX_SAMPLES:
                self._latencies.append(latency_s)
            else:
                self._latencies[self._ring_at] = latency_s
                self._ring_at = (self._ring_at + 1) % MAX_SAMPLES

    # -- reading -------------------------------------------------------

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self._outcomes.values())

    def availability(self) -> float:
        """Usable answers (ok + degraded) over all requests; 1.0 if idle."""
        with self._lock:
            total = sum(self._outcomes.values())
            if not total:
                return 1.0
            usable = self._outcomes["ok"] + self._outcomes["degraded"]
            return usable / total

    def percentile(self, p: float) -> float:
        """Exact latency percentile (seconds) by nearest-rank."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            samples = sorted(self._latencies)
        return _nearest_rank(samples, p)

    def snapshot(self) -> dict:
        """One JSON-ready dict: counts, availability, latency quantiles."""
        with self._lock:
            outcomes = dict(self._outcomes)
            samples = sorted(self._latencies)
            retries = self._retries
            concealed = self._concealed
        total = sum(outcomes.values())

        return {
            "requests": total,
            "outcomes": outcomes,
            "availability": (
                (outcomes["ok"] + outcomes["degraded"]) / total if total else 1.0
            ),
            "retries": retries,
            "concealed_tiles": concealed,
            "latency_ms": {
                "p50": 1e3 * _nearest_rank(samples, 50.0),
                "p90": 1e3 * _nearest_rank(samples, 90.0),
                "p99": 1e3 * _nearest_rank(samples, 99.0),
                "p999": 1e3 * _nearest_rank(samples, 99.9),
                "max": 1e3 * samples[-1] if samples else 0.0,
                "mean": 1e3 * sum(samples) / len(samples) if samples else 0.0,
            },
        }
