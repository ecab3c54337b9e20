"""The degradation ladder: shed moving parts, never change the codec.

Every rung runs the *same* search (two-pass ``turbo``) and therefore
emits the same bytes for the same request; what a step down removes is
one piece of machinery that can fail:

  rung 0  turbo   C kernels + a 2-thread slice pool
  rung 1  serial  C kernels, no pool
  rung 2  python  the kernels' pure-Python twin, serial

A request moves down only when a rung *fails* (its supervised attempts
are exhausted, or its circuit breaker is open) -- never because the
service is busy: no rung is cheaper than the top one, so load is the
broker's business (queue, then shed typed ``Overloaded``), not the
ladder's.  Stepping down changes speed, never bytes and never
correctness, so a response served from a lower rung is not "degraded"
in the lossy sense (that flag is reserved for concealment).  The rung
used is recorded in the response and in ``serving.rung.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.parallel import ParallelConfig
from repro.serving.breaker import CircuitBreaker

__all__ = ["DEFAULT_LADDER", "DegradationLadder", "Rung"]


@dataclass(frozen=True)
class Rung:
    """One service configuration: fan-out and backend."""

    name: str
    #: Every rung runs the one search there is; read-only, and nothing
    #: branches on it.
    rd_search: str = field(default="turbo", init=False)
    parallel: Optional[ParallelConfig] = None
    encode: str = "native"

    def __post_init__(self) -> None:
        from repro.codec.encoder import ENCODES

        if self.encode not in ENCODES:
            raise ValueError(f"unknown encode {self.encode!r}")


#: kernels + threads -> kernels -> twin, one search throughout.  What
#: the top rung's two threads buy is measured, not assumed
#: (docs/PERFORMANCE.md): a slice is GIL-free whole-slice C calls in
#: both directions -- three kernels to decode, pass 1's GEMM + cost
#: kernel then one kernel to encode -- so two threads overlap (decode
#: 1.45x on 2 cores; encode 1.1x under numpy's BLAS pool, 1.85x with
#: it off), and both sides stay serial when their kernels are
#: unavailable.  The decoder has no backend field to pin: it uses the
#: kernels whenever they are loaded, so the floor rung differs from
#: ``serial`` on the encode side only.
DEFAULT_LADDER: Tuple[Rung, ...] = (
    Rung("turbo", ParallelConfig(workers=2)),
    Rung("serial"),
    Rung("python", encode="python"),
)


class DegradationLadder:
    """Rungs plus one circuit breaker per rung.

    ``select(start)`` returns the first rung at or below ``start``
    whose breaker admits traffic; if every breaker is open the *last*
    rung is served anyway -- the ladder's floor is "always answer
    slowly", never "refuse because all breakers tripped" (refusal is
    the broker's job, on load, not the breaker's).
    """

    def __init__(
        self,
        rungs: Sequence[Rung] = DEFAULT_LADDER,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock=None,
    ) -> None:
        if not rungs:
            raise ValueError("need at least one rung")
        self.rungs = tuple(rungs)
        kwargs = {} if clock is None else {"clock": clock}
        self.breakers = tuple(
            CircuitBreaker(
                name=f"rung.{rung.name}",
                failure_threshold=failure_threshold,
                cooldown_s=cooldown_s,
                **kwargs,
            )
            for rung in self.rungs
        )

    def __len__(self) -> int:
        return len(self.rungs)

    def select(self, start: int = 0) -> Tuple[int, Rung]:
        """First admissible rung at or below ``start`` (floor: last rung)."""
        start = max(0, min(start, len(self.rungs) - 1))
        for index in range(start, len(self.rungs)):
            if self.breakers[index].allow():
                telemetry.count(f"serving.rung.{self.rungs[index].name}")
                return index, self.rungs[index]
        index = len(self.rungs) - 1
        telemetry.count("serving.all_breakers_open")
        flightrecorder.record("ladder.all_breakers_open")
        telemetry.count(f"serving.rung.{self.rungs[index].name}")
        return index, self.rungs[index]

    def record(self, index: int, ok: bool) -> None:
        if ok:
            self.breakers[index].record_success()
        else:
            self.breakers[index].record_failure()

    def stats(self) -> dict:
        return {
            "rungs": [rung.name for rung in self.rungs],
            "breakers": [breaker.stats() for breaker in self.breakers],
        }
