"""Router-level shard health: circuit breaker + failure-rate EWMA.

A shard is drained from the hash ring when either signal says it is
sick:

- the per-shard :class:`~repro.serving.breaker.CircuitBreaker` trips
  on *consecutive* infrastructure failures (the killed-shard case:
  every request fails immediately), or
- the failure-rate **EWMA** crosses :data:`EWMA_UNHEALTHY` (the sick-shard
  case: enough intermittent failures to be unusable even though
  successes keep resetting the consecutive counter).  An EWMA trip is
  routed through :meth:`CircuitBreaker.trip` so there is exactly one
  re-admission mechanism.

Re-admission is probe-driven: once the breaker's cooldown elapses,
:meth:`admit` answers ``"probe"`` and the router sends the drained
shard one bounded synthetic request.  The probe carries a short child
:class:`~repro.resilience.deadline.Deadline` -- a hung shard must cost
the probe path the router's ``PROBE_TIMEOUT_S``, never wedge it
(timeouts are counted in ``serving.breaker_probe_timeouts``).  One probe success
re-closes the breaker, resets the EWMA, and re-admits the shard to the
ring; one probe failure re-opens the breaker for a fresh cooldown.

Failure taxonomy matters here: only *infrastructure* outcomes
(``ShardDown``, exhausted retries, probe timeouts) advance the
breaker.  Deterministic request failures (corrupt payload, malformed
targets) fail identically on every shard and teach nothing about this
one; ``Overloaded`` is load, not sickness, and feeds only the EWMA so
a persistently saturated shard still sheds routing weight.
"""

from __future__ import annotations

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.serving.breaker import CircuitBreaker

__all__ = ["ShardHealth"]

#: Consecutive infrastructure failures that trip a shard's breaker.
FAILURE_THRESHOLD = 3
#: How long a tripped shard stays drained before a probe may re-admit it.
COOLDOWN_S = 0.5
#: Weight of the newest outcome in the failure-rate EWMA, and the level
#: that drains the shard: four straight load failures (1 - 0.8**4 ~ 0.59)
#: cross it, three (~ 0.49) do not.
EWMA_ALPHA = 0.2
EWMA_UNHEALTHY = 0.5


class ShardHealth:
    """One shard's admission verdict, fed by every attempt outcome."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.breaker = CircuitBreaker(
            name=f"shard.{shard_id}",
            failure_threshold=FAILURE_THRESHOLD,
            cooldown_s=COOLDOWN_S,
        )
        self.ewma = 0.0
        self.ewma_trips = 0
        self.probe_timeouts = 0

    # -- admission -----------------------------------------------------

    def admit(self) -> str:
        """``"ok"`` | ``"probe"`` | ``"rejected"`` for one request now."""
        return self.breaker.admit()

    @property
    def healthy(self) -> bool:
        """Whether the router should keep this shard on the ring."""
        return self.breaker.state == "closed"

    # -- evidence ------------------------------------------------------

    def record(self, ok: bool, infrastructure: bool = True) -> None:
        """Fold one attempt outcome in.

        ``infrastructure=False`` marks failures that say nothing about
        the shard (deterministic bad input): they advance neither
        signal.  ``Overloaded`` callers pass ``infrastructure=False``
        too but should call :meth:`record_load_failure` instead so the
        EWMA still sees the saturation.
        """
        if ok:
            self.ewma = (1.0 - EWMA_ALPHA) * self.ewma
            self.breaker.record_success()
            return
        if not infrastructure:
            return
        self.ewma = (1.0 - EWMA_ALPHA) * self.ewma + EWMA_ALPHA
        self.breaker.record_failure()
        self._check_ewma()

    def record_load_failure(self) -> None:
        """An ``Overloaded`` outcome: saturation evidence, not sickness."""
        self.ewma = (1.0 - EWMA_ALPHA) * self.ewma + EWMA_ALPHA
        self._check_ewma()

    def record_probe_timeout(self) -> None:
        """A half-open probe hit its child deadline: the shard is hung.

        Counted separately (``serving.breaker_probe_timeouts``) because
        a wedged probe path is the failure mode the bounded probe
        deadline exists to prevent.
        """
        self.probe_timeouts += 1
        telemetry.count("serving.breaker_probe_timeouts")
        self.ewma = (1.0 - EWMA_ALPHA) * self.ewma + EWMA_ALPHA
        self.breaker.record_failure()

    def reset(self) -> None:
        """A probe succeeded: full fresh start for the shard."""
        self.ewma = 0.0
        self.breaker.record_success()

    def _check_ewma(self) -> None:
        if self.ewma >= EWMA_UNHEALTHY and self.breaker.state == "closed":
            self.ewma_trips += 1
            telemetry.count("cluster.ewma_trips")
            flightrecorder.record(
                "cluster.ewma_trip",
                shard=self.shard_id,
                ewma=round(self.ewma, 4),
            )
            self.breaker.trip(reason="failure-rate-ewma")

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.breaker.state,
            "ewma": round(self.ewma, 4),
            "trips": self.breaker.trips,
            "ewma_trips": self.ewma_trips,
            "probe_timeouts": self.probe_timeouts,
        }

    def __repr__(self) -> str:
        return (
            f"ShardHealth({self.shard_id!r}, state={self.breaker.state}, "
            f"ewma={self.ewma:.3f})"
        )
