"""Bounded admission: the request broker that makes overload loud.

An entry point without admission under overload grows an unbounded queue
until memory dies; a production broker instead *sheds* -- the caller
gets a typed :class:`Overloaded` immediately and can back off.  The
broker tracks two bounded populations:

- **in-flight** requests (holding an execution slot), capped at
  ``max_inflight``;
- **queued** callers (blocked waiting for a slot), capped at
  ``max_queue``.

Admission beyond both caps raises :class:`Overloaded` synchronously --
the cheapest possible rejection, costing the caller one lock
acquisition.  Queued callers respect their deadline: a request whose
budget expires while queued raises
:class:`~repro.resilience.errors.DeadlineExceeded` without ever
executing, which is exactly the cancel-early behaviour deadlines exist
to buy.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.resilience.deadline import Deadline, effective_timeout

__all__ = ["Overloaded", "RequestBroker"]


class Overloaded(RuntimeError):
    """Typed admission rejection: queue and execution slots are full.

    Deliberately *not* a :class:`CorruptStreamError` or a transport
    fault -- the request was fine, the service is saturated.  Callers
    should back off and retry later (the broker's depth is bounded, so
    the condition clears as in-flight work drains).
    """

    def __init__(self, message: str, inflight: int = 0, queued: int = 0) -> None:
        super().__init__(message)
        self.inflight = inflight
        self.queued = queued


class RequestBroker:
    """Bounded two-stage admission gate (execution slots + wait queue)."""

    def __init__(self, max_inflight: int = 4, max_queue: int = 16) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._slot_free = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self.admitted = 0
        self.shed = 0
        self.peak_inflight = 0
        self.peak_queued = 0

    # -- introspection -------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queued(self) -> int:
        return self._queued

    def stats(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "admitted": self.admitted,
                "shed": self.shed,
                "peak_inflight": self.peak_inflight,
                "peak_queued": self.peak_queued,
            }

    # -- admission -----------------------------------------------------

    def acquire(self, deadline: Optional[Deadline] = None) -> None:
        """Take an execution slot, queueing (bounded) if none is free.

        Raises :class:`Overloaded` when the wait queue is also full and
        :class:`DeadlineExceeded` when the budget expires while queued.
        """
        with self._slot_free:
            if self._inflight < self.max_inflight:
                self._admit_locked()
                return
            if self._queued >= self.max_queue:
                self.shed += 1
                telemetry.count("serving.shed")
                flightrecorder.record(
                    "broker.shed", inflight=self._inflight, queued=self._queued
                )
                raise Overloaded(
                    f"service saturated ({self._inflight} in flight, "
                    f"{self._queued} queued)",
                    inflight=self._inflight,
                    queued=self._queued,
                )
            self._queued += 1
            self.peak_queued = max(self.peak_queued, self._queued)
            telemetry.count("serving.queued")
            try:
                while self._inflight >= self.max_inflight:
                    wait_s = effective_timeout(deadline, None)
                    if wait_s is not None and wait_s <= 0.0:
                        telemetry.count("serving.queue_deadline_expired")
                        flightrecorder.record(
                            "broker.queue_deadline_expired",
                            inflight=self._inflight, queued=self._queued,
                        )
                        deadline.check("broker.queue")
                    if not self._slot_free.wait(timeout=wait_s):
                        # Timed out: the deadline expired while queued.
                        telemetry.count("serving.queue_deadline_expired")
                        flightrecorder.record(
                            "broker.queue_deadline_expired",
                            inflight=self._inflight, queued=self._queued,
                        )
                        deadline.check("broker.queue")
            finally:
                self._queued -= 1
            self._admit_locked()

    def _admit_locked(self) -> None:
        self._inflight += 1
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)

    def release(self) -> None:
        with self._slot_free:
            if self._inflight <= 0:
                raise RuntimeError("release() without a matching acquire()")
            self._inflight -= 1
            self._slot_free.notify()

    @contextmanager
    def slot(self, deadline: Optional[Deadline] = None):
        """``with broker.slot(deadline):`` -- acquire/release pairing."""
        self.acquire(deadline)
        try:
            yield
        finally:
            self.release()
