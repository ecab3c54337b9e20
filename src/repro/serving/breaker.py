"""Per-backend circuit breaking: stop hammering what keeps failing.

Classic three-state breaker (Nygard's *Release It!* pattern) with an
injectable clock so tests and the chaos harness never sleep:

- **closed** -- requests flow; consecutive failures are counted.
- **open** -- after ``failure_threshold`` consecutive failures the
  breaker trips: :meth:`allow` answers False until ``cooldown_s`` has
  elapsed, so a struggling backend (a crash-looping pool, a rung
  whose kernels keep dying) gets air instead of a retry storm.
- **half-open** -- after the cooldown a bounded number of probe
  requests are let through; one success re-closes the breaker, one
  failure re-opens it (with a fresh cooldown).

In the serving layer each degradation-ladder rung owns one breaker, so
"turbo keeps dying" trips only the turbo rung while serial and python
keep serving.
"""

from __future__ import annotations

import time
from typing import Callable

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with monotonic-clock cooldowns.

    Thread-compatible by construction (single writer per request path;
    all state transitions are idempotent), deterministic under an
    injected ``clock``.
    """

    def __init__(
        self,
        name: str = "backend",
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.trips = 0  # closed/half-open -> open transitions

    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed cooldown."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            return HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a request may be sent to this backend right now."""
        return self.admit() != "rejected"

    def admit(self) -> str:
        """Admission verdict: ``"ok"``, ``"probe"``, or ``"rejected"``.

        ``"probe"`` means this request is a half-open probe: it is the
        breaker's only evidence about a possibly-still-sick backend, so
        the caller must bound it (a short child
        :class:`~repro.resilience.deadline.Deadline`) -- a hung backend
        would otherwise wedge the probe slot and with it the whole
        re-admission path.  Callers that cannot probe specially may
        keep using :meth:`allow`.
        """
        state = self.state
        if state == CLOSED:
            return "ok"
        if state == HALF_OPEN:
            if self._state == OPEN:
                # Cooldown just elapsed; materialise the transition.
                self._state = HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                telemetry.count("serving.breaker_probes")
                return "probe"
            return "rejected"
        telemetry.count("serving.breaker_rejections")
        return "rejected"

    def trip(self, reason: str = "forced") -> None:
        """Open the breaker directly (e.g. failure-rate EWMA crossed).

        Consecutive-failure counting is the default trip condition, but
        router-level health also drains a shard whose *rate* of failure
        is unhealthy even without a long consecutive streak; that path
        needs an explicit trip so re-admission still flows through the
        one half-open probe mechanism.
        """
        if self._state != OPEN:
            self.trips += 1
            telemetry.count("serving.breaker_trips")
            flightrecorder.record(
                "breaker.trip",
                name=self.name,
                consecutive_failures=self._consecutive_failures,
                reason=reason,
            )
        self._state = OPEN
        self._opened_at = self._clock()
        self._probes_in_flight = 0

    def record_success(self) -> None:
        if self._state == HALF_OPEN:
            telemetry.count("serving.breaker_closes")
            flightrecorder.record("breaker.close", name=self.name)
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probes_in_flight = 0

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state == HALF_OPEN or (
            self._consecutive_failures >= self.failure_threshold
        ):
            self.trip(reason="consecutive-failures")

    def stats(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "trips": self.trips,
        }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.name!r}, state={self.state})"
