"""Supervision tests: crash detection, hang detection, bounded retry,
and seeded backoff determinism."""

import time

import pytest

from repro.parallel import BrokenPoolError
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.faults import RetryPolicy
from repro.serving.supervisor import RetriesExhausted, Supervisor, WorkerCrashed

FAST_RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.001)


def _sup(**kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    return Supervisor(**kwargs)


class FlakyWork:
    """Fails ``failures`` times, then succeeds."""

    def __init__(self, failures, exc=RuntimeError("transient")):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self, deadline):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "done"


class TestRun:
    def test_success_first_try(self):
        result, attempts = _sup().run(lambda deadline: 42)
        assert (result, attempts) == (42, 1)

    def test_transient_failure_retried(self):
        work = FlakyWork(failures=2)
        result, attempts = _sup().run(work)
        assert result == "done"
        assert attempts == 3

    def test_simulated_crash_is_retryable(self):
        work = FlakyWork(failures=1, exc=WorkerCrashed("boom"))
        result, attempts = _sup().run(work)
        assert result == "done"
        assert attempts == 2

    def test_worker_crashed_is_broken_pool_error(self):
        # Simulated and real crashes must take the same recovery paths.
        assert issubclass(WorkerCrashed, BrokenPoolError)

    def test_persistent_failure_exhausts_retries(self):
        work = FlakyWork(failures=99)
        supervisor = _sup()
        with pytest.raises(RetriesExhausted) as err:
            supervisor.run(work)
        assert err.value.attempts == FAST_RETRY.max_retries + 1
        assert isinstance(err.value.last_error, RuntimeError)

    def test_non_retryable_propagates_immediately(self):
        work = FlakyWork(failures=99, exc=ValueError("bad input"))
        with pytest.raises(ValueError, match="bad input"):
            _sup().run(work)
        assert work.calls == 1

    def test_hang_detected_by_attempt_timeout(self):
        calls = []

        def hangs_once(deadline):
            calls.append(time.monotonic())
            if len(calls) == 1:
                time.sleep(1.0)  # the supervisor must not wait this long
            return "recovered"

        started = time.perf_counter()
        result, attempts = _sup().run(hangs_once, attempt_timeout_s=0.1)
        assert result == "recovered"
        assert attempts == 2
        assert time.perf_counter() - started < 1.0

    def test_abandoned_attempt_gets_expiring_child_deadline(self):
        seen = []

        def work(deadline):
            seen.append(deadline)
            if len(seen) == 1:
                time.sleep(0.3)
            return "ok"

        deadline = Deadline.after(10.0)
        _sup().run(work, attempt_timeout_s=0.1, deadline=deadline)
        # The abandoned first attempt held a child deadline that expired
        # with the attempt timeout, not the 10s request budget.
        assert seen[0].expired()
        assert not deadline.expired()

    def test_request_deadline_bounds_everything(self):
        def always_hangs(deadline):
            time.sleep(0.2)
            raise RuntimeError("never succeeds")

        with pytest.raises((DeadlineExceeded, RetriesExhausted)):
            _sup().run(
                always_hangs, attempt_timeout_s=0.05,
                deadline=Deadline.after(0.15),
            )

    def test_backoff_schedule_is_seeded(self):
        def schedule(seed):
            sleeps = []
            supervisor = Supervisor(
                retry=FAST_RETRY, seed=seed, sleep=sleeps.append
            )
            with pytest.raises(RetriesExhausted):
                supervisor.run(FlakyWork(failures=99))
            return sleeps

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
