"""Fault hardening of :func:`repro.parallel.parallel_map`: deadline
propagation, lost-delta accounting, and the shared executor.
"""

import time

import pytest

import repro.telemetry as telemetry
from repro.parallel import ParallelConfig, get_executor, parallel_map
from repro.resilience.deadline import Deadline, DeadlineExceeded


def _square(x):
    return x * x


def _sleep_for(item):
    time.sleep(item)
    return item


class TestBrokenPoolRecovery:
    def test_invalid_on_broken_rejected(self):
        # A thread pool has no worker process to lose, so there is
        # nothing to recover and no knob for it -- nor for the removed
        # per-item timeout or forced-serial switch.
        for keyword in ("on_broken", "timeout_s", "serial"):
            with pytest.raises(TypeError):
                parallel_map(_square, [1, 2], None, **{keyword: True})


class TestDeadlines:
    def test_serial_path_checks_deadline_between_items(self):
        with pytest.raises(DeadlineExceeded):
            parallel_map(_square, [1, 2, 3], None, deadline=Deadline.after(0.0))

    def test_pool_path_deadline_expiry(self):
        config = ParallelConfig(workers=2)
        with pytest.raises(DeadlineExceeded):
            parallel_map(
                _sleep_for, [0.2, 0.2, 0.2, 0.2], config,
                deadline=Deadline.after(0.05),
            )

    @pytest.mark.parametrize("traced", [True, False], ids=["telemetry", "no-telemetry"])
    def test_pool_path_expiry_counts_undrained_deltas(self, traced):
        # Item 0 drains; the wait on item 1 outlives the deadline, so
        # items 1-3 never ship their deltas and are counted lost.  Four
        # workers: no pool thread is still busy with another test's item.
        config = ParallelConfig(workers=4)
        items = [0.0, 0.5, 0.5, 0.5]
        started = time.perf_counter()
        if traced:
            with telemetry.session() as registry:
                with pytest.raises(DeadlineExceeded):
                    parallel_map(_sleep_for, items, config, deadline=Deadline.after(0.1))
            assert registry.counters["telemetry.worker_deltas_merged"] == 1
            assert registry.counters["telemetry.worker_deltas_lost"] == 3
        else:
            with pytest.raises(DeadlineExceeded):
                parallel_map(_sleep_for, items, config, deadline=Deadline.after(0.1))
            assert telemetry.current() is None
        # The caller is released at the deadline, not when the pool is.
        assert time.perf_counter() - started < 0.45

    def test_generous_deadline_is_invisible(self):
        config = ParallelConfig(workers=2)
        result = parallel_map(
            _square, range(8), config, deadline=Deadline.after(30.0)
        )
        assert result == [x * x for x in range(8)]


class TestExecutorManagement:
    def test_get_executor_rejects_serial_config(self):
        with pytest.raises(ValueError):
            get_executor(ParallelConfig(workers=1))

    def test_get_executor_is_shared(self):
        config = ParallelConfig(workers=2)
        assert get_executor(config) is get_executor(config)
