"""The degradation ladder: trade encode throughput knobs for survival.

PR 3 left the codec with a throughput ladder (turbo / vectorized /
legacy rd-search, slice parallelism); this module makes those rungs a
*runtime* policy.  Under pressure (broker queue building up) or
repeated failure (a rung's circuit breaker tripping), requests step
down to cheaper-to-supervise configurations instead of failing:

  rung 0  turbo       fastest search, slice-parallel threads
  rung 1  vectorized  batched exact search, no fan-out
  rung 2  legacy      scalar reference loop, serial

Every rung yields a *valid, full-fidelity* bitstream -- stepping down
changes speed and byte-level encode decisions, never correctness, so a
response served from a lower rung is not "degraded" in the lossy sense
(that flag is reserved for concealment).  The rung used is recorded in
the response and in ``serving.rung.*`` counters so capacity planning
can see how often the service is running hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.parallel import ParallelConfig
from repro.serving.breaker import CircuitBreaker

__all__ = ["DEFAULT_LADDER", "DegradationLadder", "Rung"]


@dataclass(frozen=True)
class Rung:
    """One service configuration: search/encode/decode strategies + fan-out."""

    name: str
    rd_search: str
    parallel: Optional[ParallelConfig] = None
    decode: str = "vectorized"
    encode: str = "native"

    def __post_init__(self) -> None:
        from repro.codec.decoder import DECODES
        from repro.codec.encoder import ENCODES, RD_SEARCHES

        if self.rd_search not in RD_SEARCHES:
            raise ValueError(f"unknown rd_search {self.rd_search!r}")
        if self.decode not in DECODES:
            raise ValueError(f"unknown decode {self.decode!r}")
        if self.encode not in ENCODES:
            raise ValueError(f"unknown encode {self.encode!r}")


#: turbo+threads -> vectorized serial -> legacy serial.  Thread (not
#: process) fan-out on the top rung: request bodies already run on
#: supervised threads.  What that buys is measured, not assumed
#: (docs/PERFORMANCE.md): a slice is GIL-free whole-slice C calls in
#: both directions -- three kernels to decode, pass 1's GEMM + cost
#: kernel then one kernel to encode -- so two threads overlap (decode
#: 1.45x on 2 cores; encode 1.1x under numpy's BLAS pool, 1.85x with
#: it off), and both sides stay serial when their kernels are
#: unavailable.  The decode axis steps down in lockstep with
#: rd-search: the floor rung serves with the interleaved reference
#: decoder and the pure-Python entropy writer, so a rung-2 response
#: exercises no fast-path code at all.
#: (``encode="native"`` on the upper rungs degrades by itself to pure
#: Python when no compiler is present -- same bytes, slower -- so it is
#: not a correctness axis the ladder needs to step through.)
DEFAULT_LADDER: Tuple[Rung, ...] = (
    Rung(
        "turbo",
        "turbo",
        ParallelConfig(workers=2, executor="thread"),
        decode="vectorized",
        encode="native",
    ),
    Rung("vectorized", "vectorized", None, decode="vectorized", encode="native"),
    Rung("legacy", "legacy", None, decode="legacy", encode="python"),
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

    def start_for_pressure(self, pressure: float) -> int:
        """Starting rung for the current load factor.

        Below 1.0 (slots free) start at the top; each additional unit
        of queued load steps one rung down -- under a thundering herd
        the whole fleet of requests shifts to cheaper configurations,
        which is precisely when cheap matters.
        """
        if pressure < 1.0:
            return 0
        step = min(len(self.rungs) - 1, int(pressure))
        if step:
            telemetry.count("serving.pressure_downshifts")
            flightrecorder.record(
                "ladder.pressure_downshift",
                rung=self.rungs[step].name,
                pressure=round(pressure, 3),
            )
        return step

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
