"""Fault hardening of :func:`repro.parallel.parallel_map`: broken-pool
recovery, per-item timeouts, and deadline propagation (PR 4 satellite).
"""

import os
import signal
import time

import pytest

import repro.telemetry as telemetry
from repro.parallel import (
    ParallelConfig,
    WorkerTimeoutError,
    discard_pool,
    get_executor,
    parallel_map,
    pool_stats,
)
from repro.resilience.deadline import Deadline, DeadlineExceeded


def _square(x):
    return x * x


def _kill_in_pool_worker(item):
    """Dies by SIGKILL inside a pool worker; survives in the caller.

    Guarded on the process name, so the serial re-run (main process)
    executes the same deterministic work unharmed -- mirroring a
    transient worker death (OOM kill) that clears on re-execution.
    """
    import multiprocessing

    if item == 5 and multiprocessing.current_process().name != "MainProcess":
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


def _sleep_for(item):
    time.sleep(item)
    return item


class TestBrokenPoolRecovery:
    def test_worker_death_mid_batch_yields_identical_output(self):
        """A SIGKILLed worker must not change the result: the batch is
        re-run serially and matches the healthy-pool output exactly."""
        config = ParallelConfig(workers=2, executor="process")
        items = list(range(12))
        before = pool_stats()["breakages"]
        with telemetry.session() as registry:
            result = parallel_map(
                _kill_in_pool_worker, items, config, label="killtest"
            )
            counters = dict(registry.counters)
        assert result == [x * x for x in range(12)]
        assert pool_stats()["breakages"] == before + 1
        assert counters.get("parallel.broken_pools") == 1
        assert counters.get("parallel.broken_pool_serial_reruns") == 1

    def test_invalid_on_broken_rejected(self):
        # There is no opt-out: discard-then-serial-rerun is the one
        # behaviour, so the keyword itself is refused.
        with pytest.raises(TypeError):
            parallel_map(_square, [1, 2], None, on_broken="raise")


class TestTimeouts:
    def test_straggler_raises_worker_timeout_with_index(self):
        config = ParallelConfig(workers=2, executor="thread")
        items = [0.0, 0.0, 0.0, 1.0, 0.0]
        started = time.perf_counter()
        with pytest.raises(WorkerTimeoutError) as err:
            parallel_map(_sleep_for, items, config, timeout_s=0.1)
        assert err.value.index == 3
        assert time.perf_counter() - started < 1.0

    def test_fast_items_unaffected_by_timeout(self):
        config = ParallelConfig(workers=2, executor="thread")
        result = parallel_map(_square, range(10), config, timeout_s=5.0)
        assert result == [x * x for x in range(10)]


class TestDeadlines:
    def test_serial_path_checks_deadline_between_items(self):
        with pytest.raises(DeadlineExceeded):
            parallel_map(_square, [1, 2, 3], None, deadline=Deadline.after(0.0))

    def test_pool_path_deadline_expiry(self):
        config = ParallelConfig(workers=2, executor="thread")
        with pytest.raises(DeadlineExceeded):
            parallel_map(
                _sleep_for, [0.2, 0.2, 0.2, 0.2], config,
                deadline=Deadline.after(0.05),
            )

    def test_generous_deadline_is_invisible(self):
        config = ParallelConfig(workers=2, executor="thread")
        result = parallel_map(
            _square, range(8), config, deadline=Deadline.after(30.0)
        )
        assert result == [x * x for x in range(8)]


class TestExecutorManagement:
    def test_get_executor_rejects_serial_config(self):
        with pytest.raises(ValueError):
            get_executor(ParallelConfig(workers=1, executor="serial"))

    def test_get_executor_is_shared(self):
        config = ParallelConfig(workers=2, executor="thread")
        assert get_executor(config) is get_executor(config)

    def test_discard_pool_drops_the_shared_executor(self):
        config = ParallelConfig(workers=3, executor="thread")
        first = get_executor(config)
        assert discard_pool("thread", 3)
        assert get_executor(config) is not first
        assert not discard_pool("thread", 99)  # never existed
