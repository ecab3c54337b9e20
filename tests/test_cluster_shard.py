"""A shard's own request path: bounded admission, then one codec call.

Nothing inside a shard retries.  A codec fault is answered
``CodecFault`` by the shard and recovered by the router, which fails
over and commits the replica's bit-exact bytes; load beyond
``SHARD_MAX_INFLIGHT + SHARD_MAX_QUEUE`` is shed typed ``Overloaded``
by the shard itself.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.cluster.shard import (
    SHARD_MAX_INFLIGHT,
    SHARD_MAX_QUEUE,
    ClusterShard,
)
from repro.resilience.deadline import DeadlineExceeded
from repro.serving.broker import Overloaded
from repro.serving.service import CodecFault
from repro.tensor.codec import TensorCodec

PAGE = np.random.default_rng(5).normal(0, 1, (16, 128)).astype(np.float32)


def primary_key(router, shard_id):
    for index in range(4096):
        key = f"k{index}"
        if router.ring.replicas(key, router.config.replication)[0] == shard_id:
            return key
    raise AssertionError(f"no key routes to {shard_id} first")


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.mark.usefixtures("no_hedges")
class TestCodecFaultFailsOver:
    def test_primary_codec_error_commits_the_replicas_exact_bytes(
        self, monkeypatch
    ):
        config = ClusterConfig(shards=2)
        with ClusterRouter(config) as router:
            key = primary_key(router, "shard-0")
            primary = router.shard("shard-0")
            calls = []

            def broken(*args, **kwargs):
                calls.append(args)
                raise RuntimeError("codec state lost")

            monkeypatch.setattr(primary.service._codec, "encode", broken)
            direct = primary.encode(PAGE, qp=config.default_qp)
            assert isinstance(direct.error, CodecFault)
            assert isinstance(direct.error.__cause__, RuntimeError)
            assert len(calls) == 1  # answered, not retried

            response = router.encode(PAGE, key)
            assert response.ok and not response.degraded
            assert response.shard == "shard-1" and response.failovers == 1
            reference = TensorCodec(tile=config.tile).encode(
                PAGE, qp=config.default_qp
            )
            assert response.value.to_bytes() == reference.to_bytes()
            assert len(calls) == 2
            # Charged to the primary's breaker, as a ShardDown would be.
            breaker = router.health["shard-0"].breaker
            assert breaker.stats()["consecutive_failures"] == 1


class TestAdmission:
    def test_sheds_typed_overloaded_at_the_bound(self):
        shard = ClusterShard("s0")
        release = threading.Event()
        running = []

        def held(kind):
            running.append(kind)
            release.wait(timeout=30.0)

        responses = []
        threads = [
            threading.Thread(target=lambda: responses.append(
                shard.encode(PAGE, deadline_s=60.0, fault_gate=held)
            ))
            for _ in range(SHARD_MAX_INFLIGHT + SHARD_MAX_QUEUE)
        ]
        for thread in threads:
            thread.start()
        try:
            assert wait_until(
                lambda: len(running) == SHARD_MAX_INFLIGHT
                and shard.broker.queued == SHARD_MAX_QUEUE
            )
            shed = shard.encode(PAGE, deadline_s=60.0)
            decode = shard.decode(b"blob", deadline_s=60.0)
            probe = shard.probe(1.0)
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=60.0)
        for answer in (shed, decode, probe):
            assert not answer.ok and isinstance(answer.error, Overloaded)
        assert shard.stats()["admission"]["shed"] == 3
        assert len(responses) == SHARD_MAX_INFLIGHT + SHARD_MAX_QUEUE
        assert all(r.ok for r in responses)
        assert shard.broker.inflight == 0

    def test_budget_spent_in_the_queue_is_a_deadline(self):
        shard = ClusterShard("s0")
        for _ in range(SHARD_MAX_INFLIGHT):
            shard.broker.acquire()
        try:
            response = shard.encode(PAGE, deadline_s=0.05)
        finally:
            for _ in range(SHARD_MAX_INFLIGHT):
                shard.broker.release()
        assert isinstance(response.error, DeadlineExceeded)
        assert shard.service.slo.snapshot()["requests"] == 0  # never ran

    def test_durable_surface_is_outside_admission(self, tmp_path):
        shard = ClusterShard("s0", store_dir=str(tmp_path), store_fsync=False)
        for _ in range(SHARD_MAX_INFLIGHT):
            shard.broker.acquire()
        try:
            assert shard.put("k", b"payload", 1).ok
            assert shard.get("k").value == b"payload"
        finally:
            for _ in range(SHARD_MAX_INFLIGHT):
                shard.broker.release()
            shard.store.close()
