"""Tests for quorum-durable routing and anti-entropy re-replication.

The router half: a put is acknowledged only at write quorum, a get
fails over past dead or damaged replicas and is bit-exact or typed.
The repair half: digest exchange, (version, hash) winner election,
re-replication until the ring's R-way invariant holds -- plus the
revive-ordering regression (a recovering shard must refuse probes
until its journal replay finishes).
"""

import os
import threading
import time

import pytest

from repro.cluster import health as health_mod
from repro.cluster import router as router_mod
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    NotFound,
    Quarantined,
    WriteQuorumFailed,
)
from repro.cluster.repair import repair_until_converged, run_anti_entropy
from repro.cluster.shard import ClusterShard, ShardDown
from repro.cluster.store import PUT_STAGES
from repro.resilience.faults import FaultInjector


@pytest.fixture(autouse=True)
def repair_policy(monkeypatch):
    """16 vnodes a shard; 2 failures drain a shard for 50 ms."""
    monkeypatch.setattr(router_mod, "VNODES", 16)
    monkeypatch.setattr(health_mod, "FAILURE_THRESHOLD", 2)
    monkeypatch.setattr(health_mod, "COOLDOWN_S", 0.05)


def make_router(tmp_path, **overrides):
    settings = dict(
        shards=3,
        replication=2,
        deadline_s=5.0,
        store_root=str(tmp_path / "stores"),
        store_fsync=False,
    )
    settings.update(overrides)
    return ClusterRouter(ClusterConfig(**settings))


@pytest.fixture
def router(tmp_path):
    with make_router(tmp_path) as instance:
        yield instance


def owners_of(router, key):
    with router._lock:
        return router.ring.replicas(key, router.config.replication)


def drain(router, shard_id):
    with router._lock:
        for _ in range(health_mod.FAILURE_THRESHOLD + 1):
            router.health[shard_id].record(False)
        router._sync_ring_locked(shard_id)
    assert shard_id not in router.ring


def readmit(router, shard_id):
    with router._lock:
        router.health[shard_id].reset()
        router._sync_ring_locked(shard_id)


class TestQuorumPut:
    def test_put_acks_full_replica_set(self, router):
        response = router.put(b"payload-bytes", "k0")
        assert response.ok and response.kind == "put"
        assert response.replicas_acked == 2
        assert response.version >= 1
        # Every owner holds the bytes durably, not just one.
        for shard_id in owners_of(router, "k0"):
            assert router.shard(shard_id).store.get("k0") == b"payload-bytes"

    def test_versions_are_a_single_total_order(self, router):
        first = router.put(b"a", "k")
        second = router.put(b"b", "other")
        third = router.put(b"c", "k")
        assert first.version < second.version < third.version
        assert router.get("k").value == b"c"

    def test_below_quorum_is_typed_and_not_acknowledged(self, router):
        owners = owners_of(router, "kq")
        router.shard(owners[1]).kill()
        response = router.put(b"doomed", "kq")
        assert not response.ok
        assert isinstance(response.error, WriteQuorumFailed)
        assert (response.error.acked, response.error.quorum) == (1, 2)
        assert response.replicas_acked == 1
        assert router.counters["store_put_quorum_failures"] == 1

    def test_quorum_shrinks_with_the_candidate_set(self, router):
        # With a dead owner *drained from the ring*, the replica set for
        # its keys falls to the survivors and writes keep flowing.
        owners = owners_of(router, "kd")
        router.shard(owners[0]).kill()
        drain(router, owners[0])
        response = router.put(b"still-durable", "kd")
        assert response.ok
        assert response.replicas_acked >= 1


class TestReopenedRouter:
    def test_version_clock_resumes_above_the_stored_versions(self, tmp_path):
        with make_router(tmp_path) as first:
            for n in range(5):
                assert first.put(b"put-%d" % n, "kr").ok
        with make_router(tmp_path) as reopened:
            owners = owners_of(reopened, "kr")
            late = owners[1]
            reopened.shard(late).kill()
            drain(reopened, late)
            sixth = reopened.put(b"put-5", "kr")
            assert sixth.ok and sixth.version == 6
            assert reopened.get("kr").value == b"put-5"
            # The owner that missed the sixth put still holds the fifth;
            # repair must elect the sixth, not the stored version 5.
            reopened.shard(late).revive()
            readmit(reopened, late)
            assert repair_until_converged(reopened).converged
            for shard_id in owners:
                store = reopened.shard(shard_id).store
                assert store.get("kr") == b"put-5"
                assert store.digest()["kr"][0] == 6


class TestVerifiedGet:
    def test_get_round_trip_bit_exact(self, router):
        payload = bytes(range(256)) * 8
        router.put(payload, "kr")
        response = router.get("kr")
        assert response.ok and response.value == payload

    def test_get_fails_over_past_a_dead_primary(self, router):
        router.put(b"replicated", "kf")
        owners = owners_of(router, "kf")
        router.shard(owners[0]).kill()
        response = router.get("kf")
        assert response.ok and response.value == b"replicated"
        assert response.shard == owners[1]
        assert response.failovers == 1

    def test_get_fails_over_past_a_corrupt_copy(self, router):
        router.put(b"replicated", "kc")
        owners = owners_of(router, "kc")
        primary = router.shard(owners[0]).store
        FaultInjector(seed=11).damage_span(
            primary.journal_path, *primary.payload_span("kc"), "bit_flip"
        )
        response = router.get("kc")
        assert response.ok and response.value == b"replicated"
        assert response.shard == owners[1]
        # The damaged copy surfaced as typed quarantine, never as bytes.
        with pytest.raises(Quarantined):
            primary.get("kc")

    def test_miss_on_every_replica_is_typed_not_found(self, router):
        response = router.get("never-written")
        assert not response.ok
        assert isinstance(response.error, NotFound)
        assert router.counters["store_get_misses"] == 1

    def test_store_errors_do_not_poison_shard_health(self, router):
        for _ in range(5 * health_mod.FAILURE_THRESHOLD):
            router.get("never-written")
        # Misses are correct answers: nobody gets drained for them.
        assert router.counters["shard_drained"] == 0
        assert len(router.ring.shard_ids) == router.config.shards


class TestAntiEntropy:
    def test_heals_a_quarantined_copy(self, router):
        payload = b"precious" * 64
        router.put(payload, "kh")
        owners = owners_of(router, "kh")
        victim = router.shard(owners[0]).store
        FaultInjector(seed=12).damage_span(
            victim.journal_path, *victim.payload_span("kh"), "bit_flip"
        )
        victim.scrub(None)  # latent damage found -> quarantined
        assert "kh" not in victim.digest()

        report = run_anti_entropy(router)
        assert report.under_replicated >= 1
        assert report.copies_made >= 1
        assert victim.get("kh") == payload  # re-replicated, verified

    def test_heals_a_suffix_truncated_behind_a_rotten_header(self, router):
        keys = [f"kt{index}" for index in range(12)]
        for index, key in enumerate(keys):
            assert router.put(bytes([index]) * 200, key).ok
        victim_id = owners_of(router, keys[0])[0]
        victim = router.shard(victim_id).store
        held = sorted(victim.digest(), key=lambda k: victim.payload_span(k)[0])
        assert len(held) >= 3
        # Rot the *header* of the second record this shard holds: replay
        # cannot walk past it, so every later acked write goes with it.
        offset, _ = victim.payload_span(held[1])
        with open(victim.journal_path, "r+b") as handle:
            handle.seek(offset - 3)
            byte = handle.read(1)
            handle.seek(offset - 3)
            handle.write(bytes([byte[0] ^ 0x40]))
        router.shard(victim_id).kill()
        router.shard(victim_id).revive()
        assert victim.last_recovery.corrupt_records == 1
        assert sorted(victim.digest()) == held[:1]

        report = repair_until_converged(router)
        assert report.converged and report.copies_made >= len(held) - 1
        for key in held:
            assert victim.get(key) == bytes([keys.index(key)]) * 200

    def test_heals_a_revived_shard_that_missed_writes(self, router):
        owners = owners_of(router, "km")
        late = owners[1]
        router.shard(late).kill()
        drain(router, late)
        acked = router.put(b"written-while-down", "km")
        assert acked.ok
        router.shard(late).revive()
        readmit(router, late)

        report = repair_until_converged(router)
        assert report.converged
        assert (
            router.shard(late).store.get("km") == b"written-while-down"
        )

    def test_winner_election_prefers_highest_version(self, router):
        owners = owners_of(router, "kv")
        # Manufacture divergence: one owner holds a stale version.
        router.shard(owners[0]).put("kv", b"stale", 3)
        router.shard(owners[1]).put("kv", b"fresh", 7)
        report = run_anti_entropy(router)
        assert report.conflicts == 1
        for shard_id in owners:
            assert router.shard(shard_id).store.get("kv") == b"fresh"
            assert router.shard(shard_id).store.digest()["kv"][0] == 7

    def test_falls_back_to_next_clean_source(self, router):
        payload = b"two-sources" * 32
        owners = owners_of(router, "ks")
        stray = next(
            sid for sid in router.shard_ids if sid not in owners
        )
        # Two holders of the winning copy, neither of them owner 1 (who
        # therefore needs a repair copy).  Silently rot the holder that
        # sorts first: repair elects it as the source, the verified read
        # rejects it (quarantine), and the next holder must be tried.
        router.shard(owners[0]).put("ks", payload, 5)
        router.shard(stray).put("ks", payload, 5)
        damaged = router.shard(min(owners[0], stray)).store
        FaultInjector(seed=13).damage_span(
            damaged.journal_path, *damaged.payload_span("ks"), "bit_flip"
        )
        report = repair_until_converged(router)
        assert report.converged
        assert not report.unrepairable
        assert report.copies_made >= 1
        for shard_id in owners:
            assert router.shard(shard_id).store.get("ks") == payload

    def test_unrepairable_key_is_reported_not_invented(self, router):
        owners = owners_of(router, "ku")
        # The only copy anywhere, silently rotted on disk.
        router.shard(owners[0]).put("ku", b"last-copy", 1)
        only = router.shard(owners[0]).store
        FaultInjector(seed=14).damage_span(
            only.journal_path, *only.payload_span("ku"), "truncate"
        )
        one = run_anti_entropy(router)
        assert one.unrepairable == ["ku"]
        assert one.copies_made == 0
        # The loss is now *visible* (quarantined), and the next sweep
        # converges rather than retrying a key nobody can serve.
        total = repair_until_converged(router)
        assert total.converged

    def test_clean_cluster_converges_in_one_pass(self, router):
        for index in range(8):
            assert router.put(bytes([index]) * 100, f"k{index}").ok
        report = repair_until_converged(router)
        assert report.converged and report.passes == 1
        assert report.copies_made == 0 and not report.unrepairable
        assert report.keys_scanned == 8

    def test_readmission_schedules_background_repair(self, router):
        owners = owners_of(router, "kb")
        late = owners[1]
        router.shard(late).kill()
        drain(router, late)
        assert router.put(b"missed", "kb").ok
        router.shard(late).revive()
        readmit(router, late)  # _sync_ring_locked -> repair scheduled
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if router.counters["repair_passes"] >= 1:
                break
            time.sleep(0.01)
        assert router.counters["repair_passes"] >= 1
        assert router.shard(late).store.get("kb") == b"missed"


class TestArmedKill:
    def test_armed_kill_fires_at_the_exact_stage(self, tmp_path):
        shard = ClusterShard("s", store_dir=str(tmp_path / "s"))
        assert shard.put("acked", b"safe", 1).ok
        shard.arm_kill("journal_partial")
        response = shard.put("doomed", b"lost", 2)
        assert not response.ok and isinstance(response.error, ShardDown)
        assert not shard.alive and shard.kills == 1
        shard.revive()
        # The acked write survived the torn-write crash; the one the
        # kill interrupted was never acknowledged and is gone.
        assert shard.store.last_recovery.torn_tail
        assert shard.get("acked").value == b"safe"
        assert isinstance(shard.get("doomed").error, NotFound)

    def test_armed_kill_fires_inside_a_compacting_put(self, tmp_path):
        shard = ClusterShard(
            "s", store_dir=str(tmp_path / "s"), store_fsync=False
        )
        shard.arm_kill("compact_synced")
        version = 0
        while shard.alive:
            version += 1
            response = shard.put("hot", bytes([version % 256]) * 8192, version)
        # Only the put whose append made the journal due got that far;
        # its record was synced before the kill, so it survives.
        assert not response.ok and isinstance(response.error, ShardDown)
        assert version > 1 and shard.store.counters["compactions"] == 0
        assert os.path.exists(shard.store.compact_path)
        shard.revive()
        assert not os.path.exists(shard.store.compact_path)
        assert shard.get("hot").value == bytes([version % 256]) * 8192

    def test_arm_kill_rejects_unknown_stage(self, tmp_path):
        shard = ClusterShard("s", store_dir=str(tmp_path / "s"))
        with pytest.raises(ValueError):
            shard.arm_kill("not-a-stage")
        assert "journal_partial" in PUT_STAGES

    def test_revive_clears_a_stale_armed_kill(self, tmp_path):
        shard = ClusterShard("s", store_dir=str(tmp_path / "s"))
        shard.arm_kill("journal_synced")
        shard.kill()  # plain kill first; the armed stage must not leak
        shard.revive()
        assert shard.put("k", b"fine", 1).ok
        assert shard.alive


class TestReviveOrdering:
    """Satellite: probe re-admission must wait for recovery."""

    def _blocked_shard(self, tmp_path):
        shard = ClusterShard("s", store_dir=str(tmp_path / "s"))
        shard.put("k", b"durable", 1)
        shard.kill()
        gate = threading.Event()
        entered = threading.Event()

        def hook():
            entered.set()
            assert gate.wait(timeout=30.0)

        shard.recovery_hook = hook
        thread = threading.Thread(target=shard.revive)
        thread.start()
        assert entered.wait(timeout=30.0)
        return shard, gate, thread

    def test_recovering_shard_refuses_requests_like_a_dead_one(
        self, tmp_path
    ):
        shard, gate, thread = self._blocked_shard(tmp_path)
        try:
            assert shard._alive and not shard.alive  # up, not serving
            probe = shard.probe(deadline_s=0.5)
            assert not probe.ok
            assert isinstance(probe.error, ShardDown)
            assert "recovering" in str(probe.error)
            read = shard.get("k")
            assert not read.ok and isinstance(read.error, ShardDown)
        finally:
            gate.set()
            thread.join(timeout=30.0)
        assert shard.alive
        assert shard.probe(deadline_s=2.0).ok
        assert shard.get("k").value == b"durable"

    def test_router_cannot_readmit_a_recovering_shard(self, tmp_path):
        from repro.telemetry.propagate import mint_trace

        with make_router(tmp_path, shards=2) as router:
            shard_id = router.shard_ids[0]
            shard = router.shard(shard_id)
            shard.kill()
            drain(router, shard_id)

            gate = threading.Event()
            entered = threading.Event()

            def hook():
                entered.set()
                assert gate.wait(timeout=30.0)

            shard.recovery_hook = hook
            thread = threading.Thread(target=shard.revive)
            thread.start()
            try:
                assert entered.wait(timeout=30.0)
                # A probe against the recovering shard must fail and
                # leave it drained -- this is the regression: before the
                # ordering fix, revive flipped `alive` first and a probe
                # racing the journal replay re-admitted a shard whose
                # index was still being rebuilt.
                ctx = mint_trace("cluster-probe", budget_s=0.5)
                router._run_probe(shard_id, 0.5, ctx)
                assert shard_id not in router.ring
            finally:
                gate.set()
                thread.join(timeout=30.0)
            ctx = mint_trace("cluster-probe", budget_s=2.0)
            router._run_probe(shard_id, 2.0, ctx)
            assert shard_id in router.ring
