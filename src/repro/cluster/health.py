"""Router-level shard health: a circuit breaker and a failure-rate EWMA.

A shard is drained from the hash ring when either signal says it is
sick:

- *consecutive* infrastructure failures reach :data:`FAILURE_THRESHOLD`
  (the killed-shard case: every request fails immediately), or
- the failure-rate **EWMA** crosses :data:`EWMA_UNHEALTHY` (the sick-shard
  case: enough intermittent failures to be unusable even though
  successes keep resetting the consecutive counter).

Both trip the same three-state breaker (Nygard's *Release It!*
pattern), so there is exactly one re-admission mechanism:

- **closed** -- requests flow; consecutive failures are counted.
- **open** -- drained: :meth:`ShardHealth.admit` answers ``"rejected"``
  until :data:`COOLDOWN_S` has elapsed, so a dead or wedged shard gets
  air instead of a retry storm.
- **half-open** -- the cooldown is up: :meth:`ShardHealth.admit`
  answers ``"probe"`` once, and the router sends the drained shard one
  bounded synthetic request.  The probe carries a short child
  :class:`~repro.resilience.deadline.Deadline` -- a hung shard must
  cost the probe path the router's ``PROBE_TIMEOUT_S``, never wedge it.
  One probe success re-closes the breaker, resets the EWMA and
  re-admits the shard to the ring; one probe failure re-opens it for a
  fresh cooldown.

Failure taxonomy matters here: only *infrastructure* outcomes
(``ShardDown``, a ``CodecFault``, probe timeouts) advance the breaker.
Deterministic request failures (corrupt payload, malformed targets)
fail identically on every shard and teach nothing about this one;
``Overloaded`` is load, not sickness, and feeds only the EWMA so a
persistently saturated shard still sheds routing weight.

The counts live here and nowhere else: :meth:`ShardHealth.stats` (in
``ClusterRouter.stats()["health"]``) holds trips, EWMA trips, probe
timeouts and the failure streak; trips and closes are the flight
recorder's ``breaker.trip`` / ``breaker.close`` events.  The injectable
``clock`` lets tests step through cooldowns without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.telemetry import flightrecorder

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

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class ShardHealth:
    """One shard's admission verdict, fed by every attempt outcome.

    Not locked: the router calls it under its own lock.
    """

    def __init__(
        self, shard_id: str, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.shard_id = shard_id
        self._clock = clock
        self._state = CLOSED
        self._opened_at = 0.0
        self._probing = False  # the one half-open probe is out
        self.consecutive_failures = 0
        self.ewma = 0.0
        self.trips = 0  # closed/half-open -> open transitions
        self.ewma_trips = 0
        self.probe_timeouts = 0

    # -- admission -----------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed cooldown."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= COOLDOWN_S
        ):
            return HALF_OPEN
        return self._state

    @property
    def healthy(self) -> bool:
        """Whether the router should keep this shard on the ring."""
        return self.state == CLOSED

    def admit(self) -> str:
        """``"ok"`` | ``"probe"`` | ``"rejected"`` for one request now."""
        state = self.state
        if state == CLOSED:
            return "ok"
        if state == HALF_OPEN:
            if self._state == OPEN:
                # Cooldown just elapsed; materialise the transition.
                self._state = HALF_OPEN
                self._probing = False
            if not self._probing:
                self._probing = True
                return "probe"
        return "rejected"

    # -- evidence ------------------------------------------------------

    def record(self, ok: bool, infrastructure: bool = True) -> None:
        """Fold one attempt outcome in.

        ``infrastructure=False`` marks failures that say nothing about
        the shard (deterministic bad input): they advance neither
        signal.  ``Overloaded`` outcomes go to
        :meth:`record_load_failure` instead, so the EWMA still sees the
        saturation.
        """
        if ok:
            self.ewma = (1.0 - EWMA_ALPHA) * self.ewma
            self._close()
            return
        if not infrastructure:
            return
        self._fail()
        self._check_ewma()

    def record_load_failure(self) -> None:
        """An ``Overloaded`` outcome: saturation evidence, not sickness."""
        self.ewma = (1.0 - EWMA_ALPHA) * self.ewma + EWMA_ALPHA
        self._check_ewma()

    def record_probe_timeout(self) -> None:
        """A half-open probe hit its child deadline: the shard is hung.

        Counted apart (``probe_timeouts``) because a wedged probe path
        is the failure mode the bounded probe deadline exists to
        prevent.
        """
        self.probe_timeouts += 1
        self._fail()

    def reset(self) -> None:
        """A probe succeeded: full fresh start for the shard."""
        self.ewma = 0.0
        self._close()

    # -- transitions ---------------------------------------------------

    def _fail(self) -> None:
        self.ewma = (1.0 - EWMA_ALPHA) * self.ewma + EWMA_ALPHA
        self.consecutive_failures += 1
        if self._state == HALF_OPEN or (
            self.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._trip("consecutive-failures")

    def _check_ewma(self) -> None:
        if self.ewma >= EWMA_UNHEALTHY and self.state == CLOSED:
            self.ewma_trips += 1
            flightrecorder.record(
                "cluster.ewma_trip",
                shard=self.shard_id,
                ewma=round(self.ewma, 4),
            )
            self._trip("failure-rate-ewma")

    def _trip(self, reason: str) -> None:
        if self._state != OPEN:
            self.trips += 1
            flightrecorder.record(
                "breaker.trip",
                name=f"shard.{self.shard_id}",
                consecutive_failures=self.consecutive_failures,
                reason=reason,
            )
        self._state = OPEN
        self._opened_at = self._clock()
        self._probing = False

    def _close(self) -> None:
        if self._state == HALF_OPEN:
            flightrecorder.record("breaker.close", name=f"shard.{self.shard_id}")
        self._state = CLOSED
        self.consecutive_failures = 0
        self._probing = False

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "state": self.state,
            "ewma": round(self.ewma, 4),
            "trips": self.trips,
            "ewma_trips": self.ewma_trips,
            "probe_timeouts": self.probe_timeouts,
            "consecutive_failures": self.consecutive_failures,
        }

    def __repr__(self) -> str:
        return (
            f"ShardHealth({self.shard_id!r}, state={self.state}, "
            f"ewma={self.ewma:.3f})"
        )
