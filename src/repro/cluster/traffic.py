"""Open-loop cluster workload: bursty, diurnal, session-sticky traffic.

Closed-loop load generators (issue, wait, issue) hide overload: when
the system slows down, the generator slows down with it, and the tail
you measure is the tail of a *kinder* workload than production ever
sends.  This generator is **open-loop**: arrival times are drawn up
front from a seeded modulated-Poisson process and requests fire on
schedule whether or not earlier ones have answered -- queueing delay
lands in the measurement instead of disappearing from it.

The arrival-rate process composes three effects observed in real
serving traces:

- a **diurnal** sinusoid (period ``diurnal_period_s``, compressed from
  hours to seconds so a soak sees whole cycles),
- **bursts**: a two-state Markov process (calm/burst with exponential
  dwell times) multiplying the rate by ``burst_factor``, and
- base Poisson arrivals via inverse-transform exponential gaps at the
  instantaneous rate.

Each arrival belongs to a **session** that reuses its working set of
tensor ids with probability ``session_stickiness`` -- the locality that
makes consistent hashing worth having (a session's keys keep landing
on the same replica sets).  Tensor sizes are drawn per tensor id from
a weighted mix, so shards see heterogeneous work, not one uniform
request cost.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Arrival",
    "OpenLoopDriver",
    "TrafficConfig",
    "generate_arrivals",
]


@dataclass
class TrafficConfig:
    """Shape of one generated workload (fully seeded)."""

    requests: int = 1000
    #: Long-run average arrival rate before modulation.
    base_rate_rps: float = 400.0
    # -- bursts (two-state Markov modulating the rate) ----------------
    burst_factor: float = 3.0
    mean_burst_s: float = 1.0
    mean_calm_s: float = 4.0
    # -- diurnal cycle (hours compressed into seconds) ----------------
    diurnal_period_s: float = 30.0
    #: Peak-to-mean swing in [0, 1); 0 disables the cycle.
    diurnal_amplitude: float = 0.4
    # -- sessions -----------------------------------------------------
    sessions: int = 32
    #: Probability an arrival reuses a tensor id its session already
    #: touched (vs. minting a fresh one).
    session_stickiness: float = 0.8
    #: Cap on each session's working set; reuse draws from this window.
    session_working_set: int = 8
    # -- request mix --------------------------------------------------
    #: ``(side, weight)`` pairs; the side is drawn per tensor id.
    sizes: Tuple[Tuple[int, float], ...] = ((16, 0.5), (32, 0.35), (48, 0.15))
    decode_fraction: float = 0.5
    seed: int = 0


@dataclass
class Arrival:
    """One scheduled request of the open-loop workload."""

    at_s: float  # offset from workload start
    index: int
    session: int
    tensor_id: str
    side: int
    kind: str  # "encode" | "decode"


def _rate_at(cfg: TrafficConfig, t: float, bursting: bool) -> float:
    rate = cfg.base_rate_rps
    if cfg.diurnal_amplitude and cfg.diurnal_period_s > 0:
        rate *= 1.0 + cfg.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / cfg.diurnal_period_s
        )
    if bursting:
        rate *= cfg.burst_factor
    return max(rate, 1e-6)


def generate_arrivals(cfg: Optional[TrafficConfig] = None) -> List[Arrival]:
    """Draw the whole workload up front (deterministic under ``seed``)."""
    cfg = cfg or TrafficConfig()
    rng = np.random.default_rng(cfg.seed)
    sides = np.array([side for side, _ in cfg.sizes], dtype=np.int64)
    weights = np.array([weight for _, weight in cfg.sizes], dtype=np.float64)
    weights /= weights.sum()

    arrivals: List[Arrival] = []
    working_sets: Dict[int, List[str]] = {s: [] for s in range(cfg.sessions)}
    side_of: Dict[str, int] = {}
    minted = 0
    t = 0.0
    bursting = False
    # Exponential dwell time left in the current calm/burst state.
    dwell = float(rng.exponential(cfg.mean_calm_s))
    for index in range(cfg.requests):
        gap = float(rng.exponential(1.0 / _rate_at(cfg, t, bursting)))
        while gap >= dwell:
            # The Markov state flips mid-gap; the residual gap rescales
            # by the rate ratio (memorylessness of the exponential).
            t += dwell
            old_rate = _rate_at(cfg, t, bursting)
            bursting = not bursting
            new_rate = _rate_at(cfg, t, bursting)
            gap = (gap - dwell) * old_rate / new_rate
            dwell = float(
                rng.exponential(
                    cfg.mean_burst_s if bursting else cfg.mean_calm_s
                )
            )
        t += gap
        dwell -= gap

        session = int(rng.integers(0, cfg.sessions))
        working = working_sets[session]
        if working and rng.random() < cfg.session_stickiness:
            tensor_id = working[int(rng.integers(0, len(working)))]
        else:
            tensor_id = f"t{session}-{minted}"
            minted += 1
            side_of[tensor_id] = int(rng.choice(sides, p=weights))
            working.append(tensor_id)
            if len(working) > cfg.session_working_set:
                working.pop(0)
        kind = "decode" if rng.random() < cfg.decode_fraction else "encode"
        arrivals.append(
            Arrival(
                at_s=t, index=index, session=session,
                tensor_id=tensor_id, side=side_of[tensor_id], kind=kind,
            )
        )
    return arrivals


class OpenLoopDriver:
    """Fire arrivals on their wall-clock schedule, never waiting for replies.

    ``send(arrival)`` runs on a client thread pool sized so the driver
    itself is not the bottleneck; if all client threads are busy the
    submission still *queues* immediately (the open-loop property is
    about issue times, and queueing delay is part of what's measured).
    """

    def __init__(
        self,
        send: Callable[[Arrival], object],
        client_threads: int = 32,
    ) -> None:
        self._send = send
        self._client_threads = client_threads

    def run(self, arrivals: Sequence[Arrival]) -> List[object]:
        """Issue every arrival; returns ``send`` results in arrival order."""
        results: List[object] = [None] * len(arrivals)
        with ThreadPoolExecutor(
            max_workers=self._client_threads,
            thread_name_prefix="traffic-client",
        ) as pool:
            start = time.perf_counter()
            futures = []
            for arrival in arrivals:
                lag = arrival.at_s - (time.perf_counter() - start)
                if lag > 0:
                    time.sleep(lag)
                futures.append(pool.submit(self._send, arrival))
            for index, future in enumerate(futures):
                results[index] = future.result()
        return results
