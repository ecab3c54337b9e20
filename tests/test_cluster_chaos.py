"""The soak's shard family over the router: the contract holds through
shard kills and hangs, the router's hedge / failover / drain / re-admit
paths engage, the report counts the soak's own traffic, the drill
trips the verdict, and nothing on the request path loads the soak."""

import json
import os
import subprocess
import sys

import repro.cluster.chaos as chaos
from repro.cluster.chaos import (
    TYPED_ERRORS,
    ChaosConfig,
    format_report,
    run_chaos,
)
from repro.cluster.router import ClusterUnavailable, WriteQuorumFailed
from repro.cluster.shard import ShardDown
from repro.cluster.store import StoreError
from repro.cluster.traffic import TrafficConfig


class TestTypedVocabulary:
    def test_cluster_errors_extend_the_serving_vocabulary(self):
        for kind in ("encode", "decode", "put", "get"):
            assert ShardDown in TYPED_ERRORS[kind]
            assert ClusterUnavailable in TYPED_ERRORS[kind]
        assert issubclass(WriteQuorumFailed, ClusterUnavailable)
        # Only the durable kinds may carry a store error.
        assert StoreError in TYPED_ERRORS["put"] + TYPED_ERRORS["get"]
        assert StoreError not in TYPED_ERRORS["encode"] + TYPED_ERRORS["decode"]

    def test_shard_down_is_not_retryable_in_shard(self):
        # The shard's service answers RuntimeError and OSError as a
        # CodecFault; ShardDown must pass through it and reach the
        # router as itself.
        assert not issubclass(ShardDown, (RuntimeError, OSError))


class TestWorkload:
    def test_every_put_writes_bytes_unique_to_its_key(self):
        # A store that serves another key's record must fail the get
        # check and the audit, so no two keys may share their bytes.
        config = ChaosConfig(requests=400)
        references = chaos._references(
            config.seed, [side for side, _ in TrafficConfig().sizes]
        )
        arrivals, sends, _ = chaos._workload(config, references)
        written = {}
        for arrival, (_, blob, _) in zip(arrivals, sends):
            if arrival.kind == "put":
                written[arrival.tensor_id] = blob
            elif arrival.kind == "get":
                assert blob == written[arrival.tensor_id]
        assert len(written) > chaos.POOL * len(TrafficConfig().sizes)
        assert len(set(written.values())) == len(written)


class TestSoak:
    def test_invariant_passes(self, chaos_report):
        inv = chaos_report["invariant"]
        assert inv["violations"] == []
        assert not any(inv["counts"].values())
        assert inv["passed"]

    def test_schedule_killed_a_shard_mid_soak(self, chaos_report):
        inv = chaos_report["invariant"]
        assert inv["kills"]["mid_write"] + inv["kills"]["fallback"] == 2
        schedule = chaos_report["schedule"]
        kills = [e for e in schedule if e["action"] == "kill"]
        revives = [e for e in schedule if e["action"] == "revive"]
        assert len(kills) == 2 and len(revives) == 2
        assert [r["shard"] for r in revives] == [k["shard"] for k in kills]
        assert [e["action"] for e in schedule].count("hang") == 1
        assert chaos_report["faults_injected"]["shard"] >= 3

    def test_all_requests_were_checked(self, chaos_report):
        checked = chaos_report["checked"]
        assert sum(checked[kind] for kind in (
            "encode", "decode", "put", "get")) == 400
        assert min(checked[kind] for kind in (
            "encode", "decode", "put", "get")) > 0

    def test_report_formats(self, chaos_report):
        text = format_report(chaos_report)
        assert text.startswith("chaos: 400 requests")
        assert "PASS" in text

    def test_router_counters_present(self, chaos_report):
        router = chaos_report["cluster"]["router"]
        for counter in ("requests", "hedges", "failovers",
                        "shard_drained", "probe_timeouts", "repair_passes"):
            assert counter in router
        assert router["hedges"] >= 1 and router["shard_drained"] >= 1

    def test_router_counts_the_soak_only(self, chaos_report):
        # The warm-up's requests are subtracted, as from the SLO, and
        # the final audit's reads come after the snapshot.
        router = chaos_report["cluster"]["router"]
        assert router["requests"] == chaos_report["config"]["requests"]
        assert chaos_report["slo"]["requests"] == router["requests"]

    def test_report_is_json_serializable(self, chaos_report):
        json.dumps(chaos_report)


class TestDrill:
    def test_force_violation_fails_and_dumps_postmortem(self, tmp_path):
        report = run_chaos(ChaosConfig(
            requests=40, kills=0,
            force_violation=True, postmortem_dir=str(tmp_path),
        ))
        inv = report["invariant"]
        assert not inv["passed"]
        assert len(inv["violations"]) == 1
        assert inv["counts"]["drill"] == 1
        assert report["postmortem"] is not None
        assert os.path.exists(report["postmortem"])
        # The bundle carries the counts that live only in their owners.
        with open(report["postmortem"]) as handle:
            extra = json.load(handle)["extra"]
        assert extra["slo"] == report["slo"]
        assert extra["slo"]["requests"] == 40  # the soak's, no warm-up
        assert extra["cluster"]["router"] == report["cluster"]["router"]
        assert extra["cluster"]["health"] == report["cluster"]["health"]


def test_soak_is_off_the_request_path():
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.serving, repro.cluster\n"
        "import repro.cluster.router, repro.serving.service\n"
        "assert 'repro.cluster.chaos' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
