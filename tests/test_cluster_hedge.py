"""Hedged requests (satellite 3): fire-after-delay, first-success-wins,
loser accounting, and the typed contract under injected stragglers."""

import random
import threading
import time

import numpy as np
import pytest

from repro.cluster.chaos import TYPED_ERRORS
from repro.cluster import router as router_mod
from repro.cluster.router import ClusterConfig, ClusterResponse, ClusterRouter
from repro.resilience.deadline import Deadline
from repro.serving.service import ServeResponse
from repro.serving.slo import _nearest_rank
from repro.telemetry.propagate import mint_trace

TENSOR = np.zeros((8, 8), dtype=np.float32)


class FakeShard:
    """Minimal scriptable shard (see test_cluster_router for the full one)."""

    def __init__(self, shard_id, delay_s=0.0):
        self.shard_id = shard_id
        self.delay_s = delay_s
        self.calls = 0

    def _answer(self, kind):
        self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return ServeResponse(
            ok=True, kind=kind, value=self.shard_id.encode(), rung="fake"
        )

    def encode(self, tensor, qp=None, deadline_s=None,
               fault_gate=None, trace_ctx=None):
        return self._answer("encode")

    def decode(self, blob, deadline_s=None, fault_gate=None, trace_ctx=None):
        return self._answer("decode")

    def probe(self, deadline_s, trace_ctx=None):
        return self._answer("probe")

    def stats(self):
        return {"shard": self.shard_id}


@pytest.fixture(autouse=True)
def hedge_delay(monkeypatch):
    """Backups fire after 60 ms until 32 latencies are in."""
    monkeypatch.setattr(router_mod, "HEDGE_INITIAL_DELAY_S", 0.06)


def set_policy(monkeypatch, **constants):
    for name, value in constants.items():
        monkeypatch.setattr(router_mod, name, value)


def make_router(delay_a=0.0, delay_b=0.0, deadline_s=3.0):
    return ClusterRouter(
        ClusterConfig(replication=2, deadline_s=deadline_s),
        shards=[FakeShard("a", delay_a), FakeShard("b", delay_b)],
    )


def key_with_primary(router, shard_id):
    for index in range(2048):
        key = f"k{index}"
        if router.ring.replicas(key, 2)[0] == shard_id:
            return key
    raise AssertionError(f"no key routes to {shard_id} first")


def wait_until(predicate, timeout_s=3.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestHedgeFiring:
    def test_fast_primary_never_hedges(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.25)
        with make_router() as router:
            key = key_with_primary(router, "a")
            for _ in range(5):
                response = router.encode(TENSOR, key)
                assert response.ok and not response.hedged
            assert router.counters["hedges"] == 0
            assert router.shard("b").calls == 0

    def test_backup_fires_only_after_the_delay(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.1)
        with make_router(delay_a=0.7) as router:
            key = key_with_primary(router, "a")
            started = time.perf_counter()
            response = router.encode(TENSOR, key)
            assert response.ok and response.hedged
            # The backup cannot have answered before the hedge delay
            # elapsed, so end-to-end latency is bounded below by it.
            assert time.perf_counter() - started >= 0.1
            assert router.counters["hedges"] == 1

    def test_hedge_disabled_never_fires(self, no_hedges):
        with make_router(delay_a=0.3) as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            assert response.ok and not response.hedged
            assert router.counters["hedges"] == 0
            assert router.shard("b").calls == 0


class TestFirstSuccessWins:
    def test_fast_backup_beats_slow_primary(self):
        with make_router(delay_a=0.8) as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            assert response.ok
            assert response.shard == "b" and response.hedge_won
            assert response.value == b"b"
            # Well under the primary's 0.8s stall.
            assert response.latency_s < 0.6
            assert router.counters["hedge_wins"] == 1

    def test_primary_win_keeps_hedged_flag_without_hedge_won(self, monkeypatch):
        # Backup is much slower than the primary: the hedge fires but
        # loses, and the response says so.
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.03)
        with make_router(delay_a=0.15, delay_b=0.8) as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            assert response.ok and response.shard == "a"
            assert response.hedged and not response.hedge_won
            assert router.counters["hedge_wins"] == 0

    def test_loser_is_discarded_and_counted(self):
        with make_router(delay_a=0.4) as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            assert response.hedge_won
            # The slow primary finishes after the commit; its result is
            # dropped at the commit cell and accounted, never surfaced.
            assert wait_until(
                lambda: router.counters["losers_discarded"] >= 1
            )
            assert router.counters["duplicate_results_dropped"] >= 1


class TestDerivedDelay:
    def test_initial_delay_until_enough_samples(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.07)
        with make_router() as router:
            assert router._hedge_delay() == 0.07

    def test_delay_tracks_the_configured_quantile(self):
        with make_router() as router:
            samples = [0.01 + 0.001 * i for i in range(100)]
            router._latencies.extend(samples)
            expected = _nearest_rank(sorted(samples), 95.0)
            assert abs(router._hedge_delay() - expected) < 1e-12

    def test_delay_floors_at_min_delay(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_MIN_DELAY_S=0.02)
        with make_router() as router:
            router._latencies.extend([0.001] * 100)
            assert router._hedge_delay() == 0.02


    @staticmethod
    def _commit(router, latency_s, count):
        for _ in range(count):
            router._finish(
                ClusterResponse(ok=True, kind="decode"),
                time.perf_counter() - latency_s,
                "t",
            )
            router._hedge_delay()  # as every hedgeable request asks

    def test_delay_keeps_following_the_tail_once_the_reservoir_is_full(
        self, monkeypatch
    ):
        # Regression: the cache was keyed on the reservoir's length,
        # which stops changing at 512 -- the delay froze at whatever the
        # first 512 responses said -- and below 512 every request
        # re-sorted the reservoir.
        sorts = []
        monkeypatch.setattr(
            router_mod, "_nearest_rank",
            lambda samples, q: sorts.append(len(samples)) or _nearest_rank(samples, q),
        )
        set_policy(monkeypatch, HEDGE_MIN_DELAY_S=0.0)
        with make_router() as router:
            self._commit(router, 0.001, 512)
            fast = router._hedge_delay()
            assert 0.001 <= fast < 0.01
            assert len(sorts) <= 512 // router_mod._HEDGE_REFRESH
            self._commit(router, 0.001, 512)  # more of the same: same answer
            assert abs(router._hedge_delay() - fast) < 0.005
            assert len(sorts) <= 1024 // router_mod._HEDGE_REFRESH
            self._commit(router, 0.05, 512)  # the tail grows: the delay follows
            assert router._hedge_delay() >= 0.05
            assert len(sorts) <= 1536 // router_mod._HEDGE_REFRESH


class TestHedgeBudget:
    def test_zero_budget_denies_every_hedge(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.05,
                   HEDGE_BUDGET=0.0, HEDGE_BUDGET_BURST=0)
        with make_router(delay_a=0.3) as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            # The slow primary still answers; the hedge was denied, not
            # the request.
            assert response.ok and not response.hedged
            assert router.counters["hedges"] == 0
            assert router.counters["hedges_denied_budget"] >= 1
            assert router.shard("b").calls == 0

    def test_burst_allowance_then_denial(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.03,
                   HEDGE_BUDGET=0.0, HEDGE_BUDGET_BURST=2)
        with make_router(delay_a=0.2) as router:
            key = key_with_primary(router, "a")
            for _ in range(4):
                assert router.encode(TENSOR, key).ok
            # Exactly the burst allowance fires; the rest are denied so
            # a storm cannot amplify load past the budget.
            assert router.counters["hedges"] == 2
            assert router.counters["hedges_denied_budget"] >= 2

    def test_budget_scales_with_request_count(self, monkeypatch):
        set_policy(monkeypatch, HEDGE_BUDGET=0.5, HEDGE_BUDGET_BURST=0)
        with make_router(delay_a=0.0) as router:
            key = key_with_primary(router, "a")
            for _ in range(20):
                assert router.encode(TENSOR, key).ok
            router.shard("a").delay_s = 0.2
            response = router.encode(TENSOR, key)
            # 0 hedges so far against a budget of 0.5 * 21: allowed.
            assert response.ok and response.hedged
            assert router.counters["hedges"] == 1
            assert router.counters["hedges_denied_budget"] == 0

    def test_concurrent_hedgers_pass_one_budget_check(self, monkeypatch):
        # Regression: the budget was checked under the router's lock but
        # charged only after the request's lock was taken, so hedgers
        # waiting on their requests' locks all passed the same check.
        set_policy(monkeypatch, HEDGE_BUDGET=0.0, HEDGE_BUDGET_BURST=1)
        hedgers = 6
        with make_router() as router:
            requests = []
            for index in range(hedgers):
                req = router_mod._Request(
                    index, "encode", mint_trace("hedge-race"),
                    Deadline.after(3.0), ("a", "b"),
                    lambda shard, budget_s, ctx: shard.encode(TENSOR),
                )
                req.tried.add("a")
                req.lock.acquire()
                requests.append(req)
            threads = [
                threading.Thread(
                    target=router._fire_hedge, args=(req,), daemon=True
                )
                for req in requests
            ]
            try:
                for thread in threads:
                    thread.start()
                wait_until(
                    lambda: router.counters["hedges_denied_budget"]
                    == hedgers - 1,
                    timeout_s=1.0,
                )
            finally:
                for req in requests:
                    req.lock.release()
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert router.counters["hedges"] == 1
            assert router.counters["hedges_denied_budget"] == hedgers - 1
            assert sum(req.hedged for req in requests) == 1


class TestContractUnderStragglers:
    def test_every_response_ok_or_typed(self, monkeypatch):
        rng = random.Random(7)
        set_policy(monkeypatch, HEDGE_INITIAL_DELAY_S=0.05)
        with make_router(deadline_s=1.5) as router:
            shards = [router.shard("a"), router.shard("b")]

            responses = []
            for index in range(40):
                # A third of requests hit a straggling shard; the
                # straggle moves between shards so hedges matter.
                for shard in shards:
                    shard.delay_s = 0.0
                if rng.random() < 0.35:
                    rng.choice(shards).delay_s = 0.25
                responses.append(router.encode(TENSOR, f"k{index}"))
            for response in responses:
                assert response.ok or isinstance(
                    response.error, TYPED_ERRORS["encode"]
                )
            # Exactly one commit per request, no silent duplicates.
            assert router.counters["requests"] == len(responses)
            assert router.counters["hedges"] >= 1
