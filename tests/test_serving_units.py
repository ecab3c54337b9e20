"""Unit tests for the request-path building blocks: deadline, broker,
the shard health breaker and SLO tracker."""

import threading
import time

import pytest

from repro.resilience.deadline import Deadline, DeadlineExceeded, effective_timeout
from repro.cluster.health import (
    COOLDOWN_S,
    EWMA_UNHEALTHY,
    FAILURE_THRESHOLD,
    ShardHealth,
)
from repro.serving.broker import Overloaded, RequestBroker
from repro.serving.slo import OUTCOMES, SloTracker


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired()
        deadline.check("stage")  # no raise

    def test_expired_check_raises_with_stage(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="during encode"):
            deadline.check("encode")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_deadline_exceeded_is_timeout_error(self):
        # Callers distinguishing timeouts from corruption rely on this.
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_effective_timeout_merging(self):
        assert effective_timeout(None, None) is None
        assert effective_timeout(None, 2.0) == 2.0
        deadline = Deadline.after(10.0)
        assert effective_timeout(deadline, None) <= 10.0
        assert effective_timeout(deadline, 0.5) == 0.5
        assert effective_timeout(Deadline.after(0.0), 5.0) == 0.0


class TestRequestBroker:
    def test_admits_up_to_max_inflight(self):
        broker = RequestBroker(max_inflight=2, max_queue=2)
        broker.acquire()
        broker.acquire()
        assert broker.inflight == 2
        broker.release()
        broker.release()
        assert broker.inflight == 0

    def test_sheds_when_queue_full(self):
        broker = RequestBroker(max_inflight=1, max_queue=0)
        broker.acquire()
        with pytest.raises(Overloaded) as err:
            broker.acquire()
        assert err.value.inflight == 1
        assert broker.stats()["shed"] == 1
        broker.release()

    def test_queued_caller_gets_slot_on_release(self):
        broker = RequestBroker(max_inflight=1, max_queue=1)
        broker.acquire()
        got_slot = threading.Event()

        def waiter():
            broker.acquire(Deadline.after(5.0))
            got_slot.set()
            broker.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):  # let the waiter reach the queue
            if broker.queued:
                break
            time.sleep(0.005)
        assert broker.queued == 1
        broker.release()
        thread.join(timeout=5.0)
        assert got_slot.is_set()
        assert broker.inflight == 0

    def test_queue_wait_respects_deadline(self):
        broker = RequestBroker(max_inflight=1, max_queue=4)
        broker.acquire()
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            broker.acquire(Deadline.after(0.05))
        assert time.perf_counter() - started < 2.0
        assert broker.queued == 0  # the expired waiter left the queue
        broker.release()

    def test_slot_context_manager_releases_on_error(self):
        broker = RequestBroker(max_inflight=1, max_queue=0)
        with pytest.raises(RuntimeError, match="boom"):
            with broker.slot():
                assert broker.inflight == 1
                raise RuntimeError("boom")
        assert broker.inflight == 0

    def test_release_without_acquire_rejected(self):
        with pytest.raises(RuntimeError):
            RequestBroker().release()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    """The breaker inside :class:`ShardHealth`, stepped by a fake clock."""

    def test_trips_after_consecutive_failures(self):
        health = ShardHealth("s", clock=FakeClock())
        for _ in range(FAILURE_THRESHOLD - 1):
            health.record(False)
        assert health.state == "closed" and health.admit() == "ok"
        health.record(False)
        assert health.state == "open" and not health.healthy
        assert health.admit() == "rejected"
        assert health.stats()["trips"] == 1

    def test_success_resets_failure_streak(self):
        health = ShardHealth("s", clock=FakeClock())
        for _ in range(FAILURE_THRESHOLD - 1):
            health.record(False)
        health.record(True)
        assert health.stats()["consecutive_failures"] == 0
        health.record(False)
        assert health.stats()["consecutive_failures"] == 1
        assert health.state == "closed"

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        health = ShardHealth("s", clock=clock)
        for _ in range(FAILURE_THRESHOLD):
            health.record(False)
        assert health.admit() == "rejected"
        clock.now = COOLDOWN_S
        assert health.state == "half_open"
        assert health.admit() == "probe"  # the single probe
        assert health.admit() == "rejected"  # probe slot taken
        health.reset()
        assert health.state == "closed" and health.healthy
        assert health.admit() == "ok"

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        health = ShardHealth("s", clock=clock)
        for _ in range(FAILURE_THRESHOLD):
            health.record(False)
        clock.now = COOLDOWN_S
        assert health.admit() == "probe"
        health.record_probe_timeout()  # one failed probe re-opens
        assert health.state == "open"
        assert health.stats()["trips"] == 2
        assert health.stats()["probe_timeouts"] == 1
        clock.now = 1.5 * COOLDOWN_S  # only halfway into the new cooldown
        assert health.admit() == "rejected"
        clock.now = 2.0 * COOLDOWN_S
        assert health.admit() == "probe"

    def test_ewma_forces_a_trip_without_a_streak(self):
        clock = FakeClock()
        health = ShardHealth("s", clock=clock)
        # Load failures never advance the streak, only the EWMA.
        while health.ewma < EWMA_UNHEALTHY:
            assert health.healthy
            health.record_load_failure()
        stats = health.stats()
        assert stats["state"] == "open" and stats["consecutive_failures"] == 0
        assert stats["ewma_trips"] == 1 and stats["trips"] == 1
        clock.now = COOLDOWN_S
        assert health.admit() == "probe"
        health.reset()
        assert health.healthy and health.ewma == 0.0


class TestSloTracker:
    def test_availability_counts_degraded_as_usable(self):
        slo = SloTracker()
        for _ in range(8):
            slo.record("ok", 0.01)
        slo.record("degraded", 0.02)
        slo.record("error", 0.03)
        assert slo.total == 10
        assert slo.availability() == pytest.approx(0.9)

    def test_idle_tracker_is_fully_available(self):
        assert SloTracker().availability() == 1.0

    def test_percentiles_are_exact_nearest_rank(self):
        slo = SloTracker()
        for ms in range(1, 101):  # 1..100 ms
            slo.record("ok", ms / 1000.0)
        assert slo.percentile(50.0) == pytest.approx(0.050)
        assert slo.percentile(99.0) == pytest.approx(0.099)
        assert slo.percentile(100.0) == pytest.approx(0.100)

    def test_snapshot_shape(self):
        slo = SloTracker()
        slo.record("ok", 0.01, retries=2, concealed=3)
        snap = slo.snapshot()
        assert snap["requests"] == 1
        assert snap["retries"] == 2
        assert snap["concealed_tiles"] == 3
        assert set(snap["outcomes"]) == set(OUTCOMES)
        assert set(snap["latency_ms"]) == {
            "p50", "p90", "p99", "p999", "max", "mean",
        }

    def test_percentiles_empty_tracker(self):
        slo = SloTracker()
        assert slo.percentile(50.0) == 0.0
        snap = slo.snapshot()
        assert snap["latency_ms"]["p50"] == 0.0
        assert snap["latency_ms"]["p999"] == 0.0

    def test_percentiles_single_sample(self):
        # n=1: every percentile IS the sample.  The old round()-based
        # rank mapped p<50 to rank 0 via clamping but p50 itself relied
        # on banker's rounding (round(0.5) == 0), which happened to
        # work; ceil makes it principled.
        slo = SloTracker()
        slo.record("ok", 0.25)
        for p in (0.0, 1.0, 50.0, 99.0, 99.9, 100.0):
            assert slo.percentile(p) == pytest.approx(0.25)

    def test_percentiles_two_samples(self):
        # n=2: p50 is the lower sample (rank ceil(1)=1), anything
        # above 50% is the upper.  round() got p75 wrong:
        # round(1.5)-1 == 1 by luck, but round(2*0.25)=0 made p25
        # clamp instead of rank.
        slo = SloTracker()
        slo.record("ok", 0.1)
        slo.record("ok", 0.9)
        assert slo.percentile(25.0) == pytest.approx(0.1)
        assert slo.percentile(50.0) == pytest.approx(0.1)
        assert slo.percentile(50.1) == pytest.approx(0.9)
        assert slo.percentile(99.0) == pytest.approx(0.9)

    def test_percentile_banker_rounding_regression(self):
        # n=10, p=25 -> nearest-rank index ceil(2.5)=3 -> 3rd smallest.
        # round(2.5) == 2 (half-to-even) used to return the 2nd.
        slo = SloTracker()
        for ms in range(1, 11):
            slo.record("ok", ms / 1000.0)
        assert slo.percentile(25.0) == pytest.approx(0.003)

    def test_p999_tracks_the_tail(self):
        slo = SloTracker()
        for _ in range(990):
            slo.record("ok", 0.001)
        for _ in range(10):
            slo.record("ok", 5.0)
        snap = slo.snapshot()["latency_ms"]
        assert snap["p99"] == pytest.approx(1.0)
        assert snap["p999"] == pytest.approx(5000.0)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            SloTracker().record("maybe", 0.01)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            SloTracker().percentile(101.0)

