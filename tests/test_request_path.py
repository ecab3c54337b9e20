"""One abandonable hop per cluster request, telemetry only when traced.

A request routed by :class:`ClusterRouter` crosses exactly one thread
hand-off -- the router's dispatch thread, on which the shard calls its
codec inline -- and, with telemetry off, builds no registry or codec
stats object anywhere.  Hangs are charged by the router's clock: a
hung primary answers ``DeadlineExceeded``, drains after a bounded
number of requests, and its late answer re-admits nothing.  Also: a
closed router answers typed and releases its journals.
"""

import collections
import concurrent.futures
import os
import threading
import time

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.cluster import health as health_mod
from repro.cluster import router as router_mod
from repro.cluster.router import ClusterConfig, ClusterRouter, ClusterUnavailable
from repro.resilience.deadline import DeadlineExceeded
from repro.serving.service import CodecService, ServeResponse
from repro.tensor.codec import TensorCodec
from repro.telemetry import codecstats, core

PAGE = np.random.default_rng(0).normal(0, 1, (16, 128)).astype(np.float32)
REQUESTS = 4


def wait_until(predicate, timeout_s=3.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def primary_key(router, shard_id):
    for index in range(4096):
        key = f"k{index}"
        if router.ring.replicas(key, router.config.replication)[0] == shard_id:
            return key
    raise AssertionError(f"no key routes to {shard_id} first")


@pytest.fixture
def spy(monkeypatch):
    """Counts pool submits (by thread-name prefix) and telemetry objects."""
    counts = collections.Counter()
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def counted_submit(self, fn, *args, **kwargs):
        counts[self._thread_name_prefix] += 1
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(
        concurrent.futures.ThreadPoolExecutor, "submit", counted_submit
    )
    for cls in (core.Registry, codecstats.EncodeStats, codecstats.DecodeStats):
        init = cls.__init__

        def counted_init(self, *args, _init=init, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted_init)
    return counts


@pytest.fixture(scope="module")
def router():
    with ClusterRouter(ClusterConfig(shards=2)) as router:
        # Warm: kernels loaded, pools built, first-op costs paid.  The
        # tests that use this router run with ``no_hedges`` as well.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(router_mod, "HEDGE_BUDGET", 0.0)
            patch.setattr(router_mod, "HEDGE_BUDGET_BURST", 0)
            blob = router.encode(PAGE, "warm").value.to_bytes()
            assert router.decode(blob, "warm").ok
        yield router


@pytest.mark.usefixtures("no_hedges")
class TestOneRecordPerEvent:
    """Each request-path count is kept once, by the object that owns it:
    a traced caller's registry gets the codec's counters and spans, and
    no ``serving.*`` / ``cluster.*`` / ``repair.*`` copy of what the
    router, its SLO tracker, shard health or a shard already keeps."""

    def test_traced_requests_leave_no_mirrors_in_the_callers_registry(
        self, tmp_path
    ):
        config = ClusterConfig(
            shards=3, store_root=str(tmp_path), store_fsync=False
        )
        # Kernels loaded before the first request's 2 s budget starts.
        TensorCodec(tile=config.tile).encode(PAGE, qp=config.default_qp)
        with ClusterRouter(config) as router:
            victim = primary_key(router, "shard-0")
            with telemetry.session() as registry:
                for index in range(4):
                    assert router.encode(PAGE, f"k{index}").ok
                router.shard("shard-0").kill()
                for _ in range(6):  # the first three fail over, then drain
                    assert router.encode(PAGE, victim).ok
                blob = router.encode(PAGE, victim).value.to_bytes()
                assert router.decode(blob, victim).ok
                assert router.put(blob, victim).ok
                assert router.get(victim).ok
            requests = 4 + 6 + 1 + 1 + 1 + 1
            # The codec's own counters did cross the hop...
            assert registry.counters["tensor.encodes"] == 11
            # ...and none of the request path's did.
            mirrored = sorted(
                name for name in registry.counters
                if name.split(".")[0] in ("serving", "cluster", "repair")
            )
            assert mirrored == []
            assert router.slo.snapshot()["requests"] == requests
            assert router.counters["requests"] == requests
            assert router.counters["failovers"] == health_mod.FAILURE_THRESHOLD
            assert router.counters["shard_drained"] == 1
            assert router.health["shard-0"].stats()["trips"] == 1
            assert router.shard("shard-0").stats()["kills"] == 1


@pytest.mark.usefixtures("no_hedges")
class TestTheCount:
    """Per untraced request: 1 router submit, 0 ``Registry`` /
    ``EncodeStats`` / ``DecodeStats`` (two hand-offs made 2 submits,
    2 registries and 1 / 2 stats objects)."""

    def test_untraced_encode_and_decode(self, router, spy):
        responses = [router.encode(PAGE, f"k{i}") for i in range(REQUESTS)]
        assert all(r.ok for r in responses)
        assert spy == {"cluster-io": REQUESTS}
        spy.clear()
        blob = responses[0].value.to_bytes()
        responses = [router.decode(blob, f"k{i}") for i in range(REQUESTS)]
        assert all(r.ok and r.trace_id for r in responses)
        assert spy == {"cluster-io": REQUESTS}

    def test_traced_request_keeps_its_span_tree(self, router, spy):
        blob = router.encode(PAGE, "k0").value.to_bytes()
        spy.clear()
        with telemetry.session(trace=True) as registry:
            encoded = router.encode(PAGE, "k0")
            decoded = router.decode(blob, "k0")
        assert encoded.ok and decoded.ok
        assert spy["cluster-io"] == 2 and spy["repro-parallel"] == 0
        # The session's registry plus one child per dispatch, no more.
        assert spy["Registry"] == 3
        assert spy["EncodeStats"] == 1 and spy["DecodeStats"] >= 1
        shard = f"shard[{encoded.shard}]"
        for kind, leaf in (("encode", "tensor.encode"), ("decode", "tensor.decode")):
            path = f"cluster.{kind}/{shard}/serving.{kind}/{leaf}"
            assert registry.spans[path].calls == 1, sorted(registry.spans)
        # One merge per traced request: the router's, none in the shard.
        assert registry.counters["telemetry.worker_deltas_merged"] == 2
        assert registry.counters["tensor.encoder_runs"] == 1
        traces = {
            event["args"].get("trace")
            for event in registry.events
            if "/serving.encode/" in event["args"].get("path", "")
        }
        assert traces == {encoded.trace_id}

    def test_standalone_service_calls_its_codec_inline(self, spy):
        service = CodecService()
        assert service.encode(PAGE).ok
        spy.clear()
        for _ in range(REQUESTS):
            assert service.encode(PAGE).ok
        assert not spy  # no hand-off, no registry, no stats object


def _ewma_trips_after():
    """Load failures until the EWMA alone drains a shard."""
    alpha = health_mod.EWMA_ALPHA
    ewma, count = 0.0, 0
    while ewma < health_mod.EWMA_UNHEALTHY:
        ewma = (1 - alpha) * ewma + alpha
        count += 1
    return count


class SlowShard:
    """Answers every encode ok, after ``delay_s``."""

    def __init__(self, shard_id, delay_s):
        self.shard_id = shard_id
        self.delay_s = delay_s

    def encode(self, tensor, **kwargs):
        time.sleep(self.delay_s)
        return ServeResponse(ok=True, kind="encode", value=b"x", rung="fake")


@pytest.mark.usefixtures("no_hedges")
class TestRouterClock:
    def test_hung_primary_drains_and_its_late_answer_readmits_nothing(self):
        config = ClusterConfig(shards=2, deadline_s=0.1)
        with ClusterRouter(config) as router:
            shard = router.shard("shard-0")
            key = primary_key(router, "shard-0")
            assert router.encode(PAGE, key, deadline_s=5.0).ok  # warm
            served = shard.service.slo.snapshot()["requests"]
            needed = _ewma_trips_after()
            shard.hang(0.6 + needed * config.deadline_s)
            for sent in range(1, needed + 1):
                response = router.encode(PAGE, key)
                assert not response.ok
                assert isinstance(response.error, DeadlineExceeded)
                if sent < needed:
                    assert "shard-0" in router.ring
            # Drained by the deadline's charge, well before the hang lifts.
            assert wait_until(lambda: "shard-0" not in router.ring, 0.3)
            assert router.counters["shard_drained"] == 1
            charged = router.health["shard-0"].ewma
            # The late answers land once the hang lifts: no re-admission,
            # no second charge.
            assert wait_until(
                lambda: shard.service.slo.snapshot()["requests"]
                == served + needed
            )
            time.sleep(0.05)
            assert "shard-0" not in router.ring
            assert router.health["shard-0"].ewma == charged
            assert router.counters["shard_readmitted"] == 0

    def test_answer_after_attempt_timeout_is_charged_not_credited(
        self, monkeypatch
    ):
        monkeypatch.setattr(router_mod, "ATTEMPT_TIMEOUT_S", 0.05)
        config = ClusterConfig(replication=1)
        with ClusterRouter(config, shards=[SlowShard("a", 0.15)]) as router:
            response = router.encode(PAGE, "k0")
            assert response.ok  # the result still commits...
            # ...but health hears a hang, once.
            assert router.health["a"].ewma == pytest.approx(
                health_mod.EWMA_ALPHA
            )

    def test_in_flight_at_deadline_is_charged_once(self):
        config = ClusterConfig(replication=1, deadline_s=0.05)
        with ClusterRouter(config, shards=[SlowShard("a", 0.2)]) as router:
            response = router.encode(PAGE, "k0")
            assert isinstance(response.error, DeadlineExceeded)
            assert wait_until(lambda: router.counters["losers_discarded"])
            assert router.health["a"].ewma == pytest.approx(
                health_mod.EWMA_ALPHA
            )

    def test_hung_probe_counts_a_probe_timeout(self, monkeypatch):
        monkeypatch.setattr(health_mod, "COOLDOWN_S", 0.1)
        monkeypatch.setattr(router_mod, "PROBE_TIMEOUT_S", 0.05)
        with ClusterRouter(ClusterConfig(shards=2)) as router:
            shard = router.shard("shard-0")
            key = primary_key(router, "shard-0")
            shard.kill()
            for _ in range(health_mod.FAILURE_THRESHOLD):
                assert router.encode(PAGE, key).ok  # failed over
            assert "shard-0" not in router.ring
            shard.revive()
            shard.hang(0.4)
            time.sleep(health_mod.COOLDOWN_S + 0.02)
            assert router.encode(PAGE, key).ok  # fires the probe
            assert router.counters["probes"] == 1
            assert wait_until(lambda: router.counters["probe_timeouts"] == 1)
            assert router.health["shard-0"].probe_timeouts == 1
            assert "shard-0" not in router.ring


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_closed_router_answers_typed_and_releases_journals(tmp_path):
    config = ClusterConfig(shards=2, store_root=str(tmp_path / "warm"),
                           store_fsync=False)
    ClusterRouter(config).close()  # shared pools and kernels built once
    baseline = _open_fds()
    config.store_root = str(tmp_path / "root")
    router = ClusterRouter(config)
    assert router.put(b"payload", "k0").ok
    assert _open_fds() > baseline
    router.close()
    router.close()  # idempotent
    assert _open_fds() == baseline
    answers = [
        router.encode(PAGE, "k0"),
        router.decode(b"blob", "k0"),
        router.put(b"payload", "k0"),
        router.get("k0"),
    ]
    assert [a.kind for a in answers] == ["encode", "decode", "put", "get"]
    for answer in answers:
        assert not answer.ok
        assert isinstance(answer.error, ClusterUnavailable)
        assert "router closed" in str(answer.error)


def _assert_closed_answer(answer, kind):
    assert answer.kind == kind and not answer.ok
    assert isinstance(answer.error, ClusterUnavailable)
    assert "router closed" in str(answer.error)


@pytest.mark.parametrize("kind", ["encode", "decode", "put"])
def test_request_racing_close_answers_typed(tmp_path, kind):
    # close() shuts the dispatch pool; a request that passed the closed
    # check just before finds it shut.  That state, set up directly:
    router = ClusterRouter(ClusterConfig(
        shards=2, store_root=str(tmp_path), store_fsync=False,
    ))
    try:
        router._executor.shutdown()
        answer = {
            "encode": lambda: router.encode(PAGE, "k0"),
            "decode": lambda: router.decode(b"blob", "k0"),
            "put": lambda: router.put(b"payload", "k0"),
        }[kind]()
    finally:
        router.close()
    _assert_closed_answer(answer, kind)


def test_hedge_racing_close_answers_typed(monkeypatch):
    # The primary shuts the pool from its own dispatch thread and holds
    # on; the hedge then finds no pool to run on.
    monkeypatch.setattr(router_mod, "HEDGE_INITIAL_DELAY_S", 0.02)
    router = ClusterRouter(ClusterConfig(shards=2))
    release = threading.Event()
    key = primary_key(router, "shard-0")

    def closing_primary(*args, **kwargs):
        router._executor.shutdown(wait=False)
        release.wait(timeout=10.0)
        return ServeResponse(ok=False, kind="encode", error=RuntimeError("late"))

    monkeypatch.setattr(router.shard("shard-0"), "encode", closing_primary)
    try:
        answer = router.encode(PAGE, key)
    finally:
        release.set()
        router.close()
    _assert_closed_answer(answer, "encode")
    assert answer.hedged
