"""Unit tests for the serving building blocks: deadline, broker,
circuit breaker, SLO tracker, and degradation ladder."""

import threading
import time

import pytest

from repro.resilience.deadline import Deadline, DeadlineExceeded, effective_timeout
from repro.serving.breaker import CircuitBreaker
from repro.serving.broker import Overloaded, RequestBroker
from repro.serving.ladder import DEFAULT_LADDER, DegradationLadder, Rung
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

    def test_child_never_exceeds_parent(self):
        parent = Deadline.after(0.05)
        child = parent.child(10.0)
        assert child.expires_at <= parent.expires_at
        tight = parent.child(0.001)
        assert tight.remaining() <= 0.002

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
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 6.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # probe budget spent
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        clock.now = 10.0  # only 4s into the new cooldown
        assert not breaker.allow()
        clock.now = 11.5
        assert breaker.allow()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


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
        slo.record("ok", 0.01, retries=2, ladder_steps=1, concealed=3)
        snap = slo.snapshot()
        assert snap["requests"] == 1
        assert snap["retries"] == 2
        assert snap["ladder_steps"] == 1
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


class TestDegradationLadder:
    def test_default_ladder_order(self):
        assert [r.name for r in DEFAULT_LADDER] == ["turbo", "serial", "python"]

    def test_unknown_rd_search_rejected(self):
        # One search: a rung cannot name another, and reads "turbo".
        with pytest.raises(TypeError, match="rd_search"):
            Rung("bogus", rd_search="quantum")
        assert Rung("bogus").rd_search == "turbo"

    def test_select_skips_tripped_rung(self):
        clock = FakeClock()
        ladder = DegradationLadder(failure_threshold=1, cooldown_s=60.0, clock=clock)
        index, rung = ladder.select()
        assert (index, rung.name) == (0, "turbo")
        ladder.record(0, False)  # trip turbo
        index, rung = ladder.select()
        assert (index, rung.name) == (1, "serial")

    def test_floor_always_serves(self):
        clock = FakeClock()
        ladder = DegradationLadder(failure_threshold=1, cooldown_s=60.0, clock=clock)
        for i in range(len(ladder)):
            ladder.record(i, False)
        index, rung = ladder.select()
        assert rung.name == "python"  # served despite an open breaker

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            DegradationLadder(rungs=())
