"""Supervision: detect crashed/hung work and retry it, bounded and seeded.

:meth:`Supervisor.run` guards **one unit of work** (a whole request
attempt).  With an ``attempt_timeout_s`` the work runs on a supervised
thread so the caller's wait can be bounded: a hang is detected by the
*supervisor's* clock, never by trusting the work to return.  The
abandoned attempt is handed a child deadline, so the cooperative
checks inside the codec stop it shortly after the supervisor gives
up -- partial work cancels itself instead of running orphaned.

With ``None`` the caller owns the clock and each attempt runs inline,
same retries and backoff: a cluster shard, whose router abandons the
dispatch thread itself.

Batch fan-outs are not supervised here: a
:func:`repro.parallel.parallel_map` runs inside the attempt that called
it, bounded by that attempt's deadline.

Backoff between retries is real (the service actually waits) but tiny
and *seeded*: jitter comes from one ``numpy`` generator, so a chaos
run replays the same schedule.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Optional, Tuple, TypeVar

import numpy as np

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.telemetry.propagate import TracedTask, count_lost_deltas, merge_delta
from repro.parallel import (
    BrokenPoolError,
    ParallelConfig,
    WorkerTimeoutError,
    get_executor,
)
from repro.resilience.deadline import Deadline, effective_timeout
from repro.resilience.faults import RetryPolicy

__all__ = ["RetriesExhausted", "Supervisor", "WorkerCrashed"]

R = TypeVar("R")

#: Exceptions treated as transient infrastructure faults: the work
#: itself may be fine, the worker running it died or stalled.  Note
#: ``ValueError`` (and so ``CorruptStreamError``) is deliberately NOT
#: here -- bad input fails identically on every retry.
RETRYABLE = (BrokenPoolError, WorkerTimeoutError, RuntimeError, OSError)


class WorkerCrashed(BrokenPoolError):
    """A worker died mid-task (also raised by simulated chaos crashes).

    Subclasses the stdlib broken-pool family so every supervision and
    fallback path treats real and injected crashes identically.
    """


class RetriesExhausted(RuntimeError):
    """Supervision gave up: the fault persisted through every retry."""

    def __init__(self, message: str, last_error: Optional[BaseException] = None,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


class Supervisor:
    """Bounded-retry execution guard with seeded backoff.

    Parameters
    ----------
    retry:
        Retry budget and backoff curve (reuses the transport layer's
        :class:`~repro.resilience.faults.RetryPolicy`).
    seed:
        Seeds the backoff jitter; two supervisors with the same seed
        produce the same wait schedule.
    executor:
        Thread-pool size used by :meth:`run` to make single-item waits
        boundable.  A hung thread is cheap to abandon: its cooperative
        deadline reaps it.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        executor: Optional[ParallelConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.retry = retry or RetryPolicy(max_retries=3, backoff_base_s=0.002)
        self._rng = np.random.default_rng(seed)
        self._executor_config = executor or ParallelConfig(workers=8)
        self._sleep = sleep
        self.timeouts = 0  # hung work detected
        self.retries = 0  # re-dispatched attempts

    # -- internals -----------------------------------------------------

    def _backoff(self, attempt: int, deadline: Optional[Deadline]) -> None:
        """Seeded-jitter exponential backoff, capped by the deadline."""
        wait_s = self.retry.backoff_s(attempt) * float(0.5 + self._rng.random())
        capped = effective_timeout(deadline, wait_s)
        if capped is not None and capped > 0:
            telemetry.observe("serving.backoff_s", capped)
            self._sleep(capped)

    # -- single-item supervision (request attempts) --------------------

    def run(
        self,
        work: Callable[[Optional[Deadline]], R],
        attempt_timeout_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        retryable: Tuple[type, ...] = RETRYABLE,
    ) -> Tuple[R, int]:
        """Run ``work`` under supervision; returns ``(result, attempts)``.

        ``work`` receives the *attempt's* deadline (the request
        deadline capped at ``attempt_timeout_s``) and must thread it
        into whatever it calls, so an attempt the supervisor abandoned
        stops cooperating on its own.  Transient failures (``retryable``)
        are retried with seeded backoff until the retry budget or the
        request deadline runs out; anything else propagates immediately.
        ``attempt_timeout_s=None`` runs every attempt on the calling
        thread (the caller owns the clock; nothing is abandoned).

        With telemetry live on the calling thread, every attempt is a
        sibling span (``attempt[0]``, ``attempt[1]``, ...) -- including
        *failed* attempts.  A pooled attempt records in a child registry
        whose delta is merged back (a hung one's is accounted in
        ``telemetry.worker_deltas_lost``); an inline one, directly.
        """
        inline = attempt_timeout_s is None
        pool = None if inline else get_executor(self._executor_config)
        # Only a pool wait times out; inline, a TimeoutError is the work's.
        wait_timeout = () if inline else FuturesTimeoutError
        parent = telemetry.current()
        last_error: Optional[BaseException] = None
        attempts = 0
        for attempt in range(self.retry.max_retries + 1):
            if deadline is not None:
                deadline.check("supervisor.run")
            attempt_deadline = (
                deadline.child(attempt_timeout_s, label="attempt")
                if deadline is not None and attempt_timeout_s is not None
                else deadline
            )
            attempts += 1
            wait_s = effective_timeout(deadline, attempt_timeout_s)
            try:
                if inline:
                    with telemetry.span(f"attempt[{attempt}]"):
                        result = work(attempt_deadline)
                elif parent is None:
                    future = pool.submit(work, attempt_deadline)
                    result = future.result(timeout=wait_s)
                else:
                    task = TracedTask(
                        work, ctx=parent.trace_ctx, trace=parent.trace,
                        capture_error=True, root=f"attempt[{attempt}]",
                    )
                    future = pool.submit(task, attempt_deadline)
                    outcome = future.result(timeout=wait_s)
                    merge_delta(parent, outcome.delta, under=parent.current_path())
                    if outcome.error is not None:
                        raise outcome.error
                    result = outcome.result
                if attempt:
                    telemetry.count("serving.recovered_after_retry")
                return result, attempts
            except wait_timeout:
                future.cancel()
                self.timeouts += 1
                telemetry.count("serving.worker_timeouts")
                count_lost_deltas(parent, 1)
                last_error = WorkerTimeoutError(
                    f"attempt {attempt} exceeded {wait_s:.3f}s"
                )
                flightrecorder.record(
                    "supervisor.timeout", attempt=attempt, wait_s=wait_s
                )
            except retryable as exc:
                if isinstance(exc, BrokenPoolError):
                    telemetry.count("serving.worker_crashes")
                last_error = exc
                flightrecorder.record(
                    "supervisor.attempt_failed",
                    attempt=attempt,
                    error_type=type(exc).__name__,
                    error=str(exc),
                )
            if attempt < self.retry.max_retries:
                self.retries += 1
                flightrecorder.record("supervisor.retry", attempt=attempt + 1)
                self._backoff(attempt + 1, deadline)
        raise RetriesExhausted(
            f"work failed after {attempts} attempts: {last_error!r}",
            last_error=last_error,
            attempts=attempts,
        )

    def stats(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "retries": self.retries,
        }
