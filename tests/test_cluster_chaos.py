"""Cluster chaos soak: contract holds through shard kills; drill path."""

import json
import os

import pytest

from repro.cluster.chaos import (
    CLUSTER_TYPED_ERRORS,
    ClusterChaosConfig,
    format_cluster_report,
    run_cluster_chaos,
)
from repro.cluster.router import ClusterUnavailable
from repro.cluster.shard import ShardDown


def small_config(**overrides):
    defaults = dict(
        shards=3,
        replication=2,
        requests=220,
        seed=0,
        base_rate_rps=60.0,
        client_threads=8,
        kills=1,
        revive_after_s=0.8,
        hangs=1,
        hang_s=0.3,
        # The tracked 10k-request baseline asserts 0.999; a 220-request
        # population cannot resolve that finely, so the smoke floor is
        # looser while the zero-violation contract stays absolute.
        availability_slo=0.98,
    )
    defaults.update(overrides)
    return ClusterChaosConfig(**defaults)


class TestTypedVocabulary:
    def test_cluster_errors_extend_the_serving_vocabulary(self):
        assert ShardDown in CLUSTER_TYPED_ERRORS
        assert ClusterUnavailable in CLUSTER_TYPED_ERRORS

    def test_shard_down_is_not_retryable_in_shard(self):
        # The shard's service answers RuntimeError and OSError as a
        # CodecFault; ShardDown must pass through it and reach the
        # router as itself.
        assert not issubclass(ShardDown, (RuntimeError, OSError))


class TestSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return run_cluster_chaos(small_config())

    def test_invariant_passes(self, report):
        inv = report["invariant"]
        assert inv["violations"] == []
        assert inv["silent_corruptions"] == 0
        assert inv["untyped_errors"] == 0
        assert inv["availability"] >= inv["availability_slo"]
        assert inv["passed"]

    def test_schedule_killed_a_shard_mid_soak(self, report):
        inv = report["invariant"]
        assert inv["kills"] == 1
        kills = [e for e in report["schedule"] if e["action"] == "kill"]
        revives = [e for e in report["schedule"] if e["action"] == "revive"]
        assert len(kills) == 1 and len(revives) == 1
        assert revives[0]["shard"] == kills[0]["shard"]
        assert report["faults_injected"]["shard"] >= 1

    def test_all_requests_were_checked(self, report):
        checked = report["checked"]
        assert checked["encode"] + checked["decode"] == 220

    def test_report_formats(self, report):
        text = format_cluster_report(report)
        assert "cluster chaos" in text
        assert "PASS" in text

    def test_router_counters_present(self, report):
        router = report["cluster"]["router"]
        for counter in ("requests", "hedges", "failovers",
                        "shard_drained", "probe_timeouts"):
            assert counter in router

    def test_router_counts_the_soak_only(self, report):
        # The warm-up's requests are subtracted, as from the SLO.
        router = report["cluster"]["router"]
        assert router["requests"] == report["config"]["requests"]

    def test_report_is_json_serializable(self, report):
        json.dumps({k: v for k, v in report.items() if k != "config"})


class TestDrill:
    def test_force_violation_fails_and_dumps_postmortem(self, tmp_path):
        report = run_cluster_chaos(
            small_config(
                requests=40, kills=0, hangs=0,
                force_violation=True,
                postmortem_dir=str(tmp_path),
            )
        )
        inv = report["invariant"]
        assert not inv["passed"]
        assert len(inv["violations"]) == 1
        assert "drill" in inv["violations"][0]["reason"]
        assert report["postmortem"] is not None
        assert os.path.exists(report["postmortem"])
        # The bundle carries the counts that live only in their owners.
        extra = json.load(open(report["postmortem"]))["extra"]
        assert extra["slo"] == report["slo"]
        assert extra["slo"]["requests"] == 40  # the soak's, no warm-up
        assert extra["cluster"]["router"] == report["cluster"]["router"]
        assert extra["cluster"]["health"] == report["cluster"]["health"]
