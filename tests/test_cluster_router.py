"""Router mechanics with scriptable fake shards.

Covers the dedupe commit cell (satellite 1), the bounded probe path
and its timeout counter (satellite 2), failover taxonomy, drain /
re-admission, and the typed-response guarantee when every replica is
gone.
"""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.cluster import health as health_mod
from repro.cluster import router as router_mod
from repro.cluster.chaos import CLUSTER_TYPED_ERRORS
from repro.cluster.router import (
    ClusterConfig,
    ClusterRouter,
    ClusterUnavailable,
    WriteQuorumFailed,
)
from repro.serving.slo import _nearest_rank
from repro.cluster.shard import ShardDown
from repro.resilience.deadline import DeadlineExceeded
from repro.serving.service import ServeResponse

TENSOR = np.zeros((8, 8), dtype=np.float32)


class FakeShard:
    """Scriptable stand-in for a :class:`ClusterShard`.

    ``script(kind)`` returns the :class:`ServeResponse` to answer with;
    ``delay_s`` sleeps first (releasing the GIL, like real IO would).
    Both are plain attributes so tests can retarget a shard mid-run.
    """

    def __init__(self, shard_id, script=None, delay_s=0.0):
        self.shard_id = shard_id
        self.script = script or (
            lambda kind: ServeResponse(
                ok=True, kind=kind, value=shard_id.encode(), rung="fake"
            )
        )
        self.delay_s = delay_s
        self.calls = []
        self.probe_budgets = []

    def _answer(self, kind, budget):
        self.calls.append((kind, budget))
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.script(kind)

    def encode(self, tensor, qp=None, deadline_s=None,
               fault_gate=None, trace_ctx=None):
        return self._answer("encode", deadline_s)

    def decode(self, blob, deadline_s=None, fault_gate=None, trace_ctx=None):
        return self._answer("decode", deadline_s)

    def probe(self, deadline_s, trace_ctx=None):
        self.probe_budgets.append(deadline_s)
        return self._answer("probe", deadline_s)

    def stats(self):
        return {"shard": self.shard_id, "calls": len(self.calls)}


def shard_down(shard_id):
    return lambda kind: ServeResponse(
        ok=False, kind=kind, error=ShardDown(shard_id)
    )


@pytest.fixture
def fast_readmission(monkeypatch):
    """A drained shard may be probed after 0.15 s; a probe gets 0.08 s."""
    monkeypatch.setattr(health_mod, "COOLDOWN_S", 0.15)
    monkeypatch.setattr(router_mod, "PROBE_TIMEOUT_S", 0.08)


def make_router(script_a=None, script_b=None, deadline_s=2.0):
    shards = [FakeShard("a", script_a), FakeShard("b", script_b)]
    config = ClusterConfig(replication=2, deadline_s=deadline_s)
    return ClusterRouter(config, shards=shards)


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


@pytest.mark.usefixtures("fast_readmission", "no_hedges")
class TestRouting:
    def test_roundtrip_commits_primary(self):
        with make_router() as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            assert response.ok and response.shard == "a"
            assert response.failovers == 0 and not response.hedged
            assert router.counters["requests"] == 1

    def test_replica_set_follows_the_ring(self):
        with make_router() as router:
            key = key_with_primary(router, "b")
            response = router.decode(b"blob", key)
            assert response.ok and response.shard == "b"

    def test_decode_and_encode_share_key_routing(self):
        with make_router() as router:
            key = key_with_primary(router, "a")
            assert router.encode(TENSOR, key).shard == "a"
            assert router.decode(b"blob", key).shard == "a"


@pytest.mark.usefixtures("fast_readmission", "no_hedges")
class TestFailover:
    def test_shard_down_fails_over_within_the_request(self):
        with make_router(script_a=shard_down("a")) as router:
            key = key_with_primary(router, "a")
            response = router.encode(TENSOR, key)
            assert response.ok and response.shard == "b"
            assert response.failovers == 1
            assert router.counters["failovers"] == 1

    def test_all_replicas_down_yields_typed_error(self):
        with make_router(
            script_a=shard_down("a"), script_b=shard_down("b")
        ) as router:
            response = router.encode(TENSOR, "k0")
            assert not response.ok
            assert isinstance(response.error, CLUSTER_TYPED_ERRORS)

    def test_deterministic_error_commits_without_failover(self):
        bad = lambda kind: ServeResponse(
            ok=False, kind=kind, error=ValueError("malformed request")
        )
        with make_router(script_a=bad) as router:
            key = key_with_primary(router, "a")
            for _ in range(5):
                response = router.encode(TENSOR, key)
                assert not response.ok
                assert isinstance(response.error, ValueError)
                assert response.failovers == 0
            # Bad input teaches shard health nothing: still on the ring.
            assert "a" in router.ring
            assert router.counters["failovers"] == 0

    def test_request_deadline_yields_typed_deadline_error(self):
        with make_router() as router:
            router.shard("a").delay_s = 0.5
            router.shard("b").delay_s = 0.5
            response = router.encode(TENSOR, "k0", deadline_s=0.05)
            assert not response.ok
            assert isinstance(response.error, DeadlineExceeded)


@pytest.mark.usefixtures("fast_readmission")
class TestDedupe:
    def test_at_most_one_commit_per_request(self):
        # Primary is slow-but-healthy; the hedge answers first.  Both
        # results eventually arrive; exactly one is committed and the
        # loser is dropped and counted (satellite 1).
        with make_router(deadline_s=3.0) as router:
            key = key_with_primary(router, "a")
            router.shard("a").delay_s = 0.6
            response = router.encode(TENSOR, key)
            assert response.ok and response.shard == "b"
            assert response.hedged and response.hedge_won
            assert wait_until(
                lambda: router.counters["losers_discarded"] >= 1
            )
            assert router.counters["duplicate_results_dropped"] >= 1
            assert router.counters["hedge_wins"] == 1

    def test_dispatch_never_reuses_a_shard(self, no_hedges):
        # Failover has nowhere to go once both replicas were tried:
        # the request resolves typed instead of re-dispatching.
        with make_router(
            script_a=shard_down("a"), script_b=shard_down("b")
        ) as router:
            response = router.encode(TENSOR, "k3")
            assert not response.ok
            assert len(router.shard("a").calls) + len(
                router.shard("b").calls
            ) == 2


@pytest.mark.usefixtures("fast_readmission", "no_hedges")
class TestHealthAndProbes:
    def _drain_primary(self, router, key):
        for _ in range(health_mod.FAILURE_THRESHOLD):
            router.encode(TENSOR, key)
        assert "a" not in router.ring
        assert router.counters["shard_drained"] == 1

    def test_repeated_shard_failures_drain_the_ring(self):
        with make_router(script_a=shard_down("a")) as router:
            key = key_with_primary(router, "a")
            self._drain_primary(router, key)
            # Traffic keeps flowing to the survivor, no failovers needed.
            response = router.encode(TENSOR, key)
            assert response.ok and response.shard == "b"
            assert response.failovers == 0

    def test_probe_readmits_a_recovered_shard(self):
        with make_router(script_a=shard_down("a")) as router:
            key = key_with_primary(router, "a")
            self._drain_primary(router, key)
            router.shard("a").script = lambda kind: ServeResponse(
                ok=True, kind=kind, value=b"a", rung="fake"
            )
            time.sleep(health_mod.COOLDOWN_S + 0.05)
            router.encode(TENSOR, key)  # triggers _maybe_probe
            assert wait_until(lambda: "a" in router.ring)
            assert router.counters["probes"] == 1
            assert router.counters["shard_readmitted"] == 1

    def test_probe_carries_child_deadline(self):
        # The half-open probe is budgeted at PROBE_TIMEOUT_S
        # regardless of the live request's deadline.
        with make_router(script_a=shard_down("a")) as router:
            key = key_with_primary(router, "a")
            self._drain_primary(router, key)
            time.sleep(health_mod.COOLDOWN_S + 0.05)
            router.encode(TENSOR, key, deadline_s=30.0)
            assert wait_until(lambda: router.shard("a").probe_budgets)
            budget = router.shard("a").probe_budgets[0]
            assert 0 < budget <= router_mod.PROBE_TIMEOUT_S

    def test_hung_probe_counts_a_probe_timeout(self):
        with make_router(script_a=shard_down("a")) as router:
            key = key_with_primary(router, "a")
            self._drain_primary(router, key)
            router.shard("a").script = lambda kind: ServeResponse(
                ok=False, kind=kind,
                error=DeadlineExceeded("probe deadline exceeded"),
            )
            time.sleep(health_mod.COOLDOWN_S + 0.05)
            router.encode(TENSOR, key)
            assert wait_until(
                lambda: router.counters["probe_timeouts"] >= 1
            )
            assert router.health["a"].probe_timeouts >= 1
            assert "a" not in router.ring  # still drained

    def test_every_shard_drained_still_tries_somebody(self):
        with make_router(
            script_a=shard_down("a"), script_b=shard_down("b")
        ) as router:
            for _ in range(4):
                router.encode(TENSOR, "k1")
            assert len(router.ring) == 0
            response = router.encode(TENSOR, "k1")
            assert not response.ok
            assert isinstance(response.error, CLUSTER_TYPED_ERRORS)
            assert router.counters["no_healthy_shards"] >= 1


class TestConfig:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ClusterRouter(ClusterConfig(), shards=[])

    def test_io_pool_sized_from_shard_envelope(self):
        # Four shards x (4 admission slots + 1 probe or repair).
        with ClusterRouter(ClusterConfig(shards=4)) as router:
            assert router._executor._max_workers == 20

    def test_stats_document_shape(self, fast_readmission, no_hedges):
        with make_router() as router:
            router.encode(TENSOR, "k0")
            doc = router.stats()
            assert doc["config"]["replication"] == 2
            assert set(doc["ring"]["members"]) == {"a", "b"}
            assert doc["router"]["requests"] == 1
            assert "a" in doc["health"] and "b" in doc["shards"]


class TestDefaults:
    """``ClusterRouter(ClusterConfig())`` routes, hedges, acknowledges and
    drains as it did when these values were config fields."""

    def test_defaults_are_pinned(self, tmp_path):
        with ClusterRouter(ClusterConfig()) as router:
            pairs = "\n".join(
                ",".join(router.ring.replicas(f"tensor-{i}", 2))
                for i in range(1000)
            )
            assert hashlib.sha256(pairs.encode()).hexdigest() == (
                "48875e0e1f83e6ed572286bd13ad897e5fd4519a34d6e2545b46202deefc912a"
            )
            # 0.05 s until 32 latencies are in, then p95 floored at 5 ms.
            self._add_latencies(router, [0.001] * 31)
            assert router._hedge_delay() == 0.05
            self._add_latencies(router, [0.001])
            assert router._hedge_delay() == 0.005
            self._add_latencies(router, [0.010 + 0.001 * i for i in range(64)])
            expected = _nearest_rank(sorted(router._latencies), 95.0)
            assert expected > 0.005
            assert router._hedge_delay() == expected
            # Breaker: 3 consecutive infrastructure failures drain.
            health = router.health["shard-0"]
            for _ in range(2):
                health.record(False)
            assert health.healthy
            health.record(False)
            assert not health.healthy
            # EWMA: 4 load failures (1 - 0.8**4 ~ 0.59 >= 0.5) drain, 3 do not.
            health = router.health["shard-1"]
            for _ in range(3):
                health.record_load_failure()
            assert health.healthy
            health.record_load_failure()
            assert not health.healthy

        with ClusterRouter(ClusterConfig(store_root=str(tmp_path))) as router:
            key = "tensor-0"
            second = router.ring.replicas(key, 2)[1]
            router.shard(second).kill()
            response = router.put(b"payload", key)
            assert not response.ok
            assert isinstance(response.error, WriteQuorumFailed)
            assert response.error.quorum == 2
            assert response.error.acked == 1

    @staticmethod
    def _add_latencies(router, latencies):
        router._latencies.extend(latencies)
        router._latencies_seen += len(latencies)
