"""The soak's judging pieces (:mod:`repro.cluster.chaos`).

One contract-check table over response shape x the request kinds a
vocabulary covers x ``damaged``; one test per reason the verdict can
give, each produced through a fake response, shard or forced state;
the ledger under concurrent client threads; the postmortem tail, the
fault schedule and the CLI's JSON writer.  The soak that composes
them is tested in ``test_serving_chaos`` (timing and payload faults),
``test_cluster_chaos`` (shard kills, the router, the drill) and
``test_cluster_durability`` (disk faults, acked writes, repair).
"""

import copy
import json
import sys
import threading

import numpy as np
import pytest

from repro.cluster import chaos as chaos_mod
from repro.cluster.chaos import (
    ALL_FLOOR,
    REASONS,
    REPLICATION,
    REVIVE_AFTER_S,
    KILL_SLACK_S,
    ChaosConfig,
    ViolationLedger,
    attach_postmortem,
    audit,
    build_schedule,
    census,
    check_response,
    format_report,
    judge,
)
from repro.cluster.repair import RepairReport
from repro.cluster.router import ClusterResponse, ClusterUnavailable
from repro.cluster.shard import ShardDown
from repro.cluster.store import NotFound
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.serving.broker import Overloaded
from repro.serving.service import CodecFault, ServeResponse
from repro.telemetry import flightrecorder

#: The request kinds each of the three soaks this one replaced judged.
#: Each row of their table still holds for those kinds under the one
#: table -- except that the serving soak's requests now cross the
#: router, so the router's two errors are typed for them too.
VOCABULARIES = {
    "serving": ("encode", "decode"),
    "cluster": ("encode", "decode"),
    "durability": ("put", "get"),
}

TENSOR = np.arange(16, dtype=np.float32).reshape(4, 4)
BLOB = b"container-bytes"
PATCHED = ConcealmentReport(total_slices=4, concealed=[(1, "crc")])


class _Encoded:
    """Stands in for a CompressedTensor: all the check reads is its bytes."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def to_bytes(self) -> bytes:
        return self._data


def _ok(kind, value, **fields):
    return ServeResponse(ok=True, kind=kind, value=value, **fields)


def _failed(kind, error):
    return ServeResponse(ok=False, kind=kind, error=error)


# (response, reference, damaged) -> the reason, whatever the vocabulary.
SHAPES = {
    "encode exact": (_ok("encode", _Encoded(BLOB)), BLOB, False, None),
    "encode differs": (
        _ok("encode", _Encoded(b"other")), BLOB, False,
        "silent corruption: bytes differ from the serial reference",
    ),
    "encode degraded": (
        _ok("encode", _Encoded(BLOB), degraded=True), BLOB, False,
        "untyped: encode marked degraded",
    ),
    "decode exact": (_ok("decode", TENSOR.copy()), TENSOR, False, None),
    "decode differs": (
        _ok("decode", TENSOR + 1), TENSOR, False,
        "silent corruption: tensor differs from reference",
    ),
    "damaged decode served as clean": (
        _ok("decode", TENSOR.copy()), TENSOR, True,
        "silent corruption: damaged blob decoded clean",
    ),
    "clean decode concealed": (
        _ok("decode", TENSOR + 1, degraded=True, report=PATCHED),
        TENSOR, False, "untyped: clean blob concealed",
    ),
    "damaged decode concealed": (
        _ok("decode", TENSOR + 1, degraded=True, report=PATCHED),
        TENSOR, True, None,
    ),
    "degraded without a report": (
        _ok("decode", TENSOR + 1, degraded=True), TENSOR, True,
        "untyped: degraded without concealment report",
    ),
    "degraded with a clean report": (
        _ok("decode", TENSOR, degraded=True,
            report=ConcealmentReport(total_slices=4)),
        TENSOR, True, "untyped: degraded without concealment report",
    ),
    "put acked": (ClusterResponse(ok=True, kind="put"), BLOB, False, None),
    "get exact": (
        ClusterResponse(ok=True, kind="get", value=BLOB), BLOB, False, None,
    ),
    "get differs": (
        ClusterResponse(ok=True, kind="get", value=b"rot"), BLOB, False,
        "silent corruption: served bytes differ from written payload",
    ),
}

# error -> the vocabularies it is typed in.
ERRORS = {
    "Overloaded": (Overloaded("full"), {"serving", "cluster", "durability"}),
    "CorruptStreamError": (
        CorruptStreamError("bad crc"), {"serving", "cluster", "durability"},
    ),
    "CodecFault": (
        CodecFault("encode failed"), {"serving", "cluster", "durability"},
    ),
    "ShardDown": (ShardDown("s1"), {"serving", "cluster", "durability"}),
    "ClusterUnavailable": (
        ClusterUnavailable("no shard"), {"serving", "cluster", "durability"},
    ),
    # A store error is typed for put / get only: on an encode it is a
    # violation.
    "NotFound": (NotFound("k"), {"durability"}),
    "RuntimeError": (RuntimeError("boom"), set()),
    "KeyError": (KeyError("k"), set()),
}


class TestContractTable:
    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_ok_responses(self, shape, vocabulary):
        response, reference, damaged, expected = SHAPES[shape]
        assert check_response(response, reference, damaged) == expected

    @pytest.mark.parametrize("damaged", [False, True])
    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_failed_responses(self, name, vocabulary, damaged):
        error, typed_in = ERRORS[name]
        for kind in VOCABULARIES[vocabulary]:
            reason = check_response(_failed(kind, error), None, damaged)
            if vocabulary in typed_in:
                assert reason is None
            else:
                assert reason == f"untyped error {name}"

    def test_every_reason_carries_a_counted_prefix(self):
        reasons = [expected for *_, expected in SHAPES.values() if expected]
        reasons.append(check_response(
            _failed("encode", RuntimeError("x")), None
        ))
        assert all(r.startswith(("silent", "untyped")) for r in reasons)
        assert all(r.startswith(REASONS) for r in reasons)


def _verdict(ledger, kills=0, required=0, converged=True):
    repair = RepairReport(converged=converged)
    return judge(ledger, {"mid_write": kills, "fallback": 0}, required,
                 repair, acked_writes=0)


def _counted(inv, prefix):
    assert not inv["passed"]
    assert inv["counts"][prefix] >= 1, inv["violations"]


class _Router:
    """Stands in for the router the audit reads through."""

    def __init__(self, response):
        self._response = response

    def get(self, key):
        return self._response


class _Store:
    open = True

    def __init__(self, digest):
        self._digest = digest

    def digest(self):
        return self._digest


class _Shard:
    alive = True

    def __init__(self, digest):
        self.store = _Store(digest)


class _Cluster:
    """Stands in for the router the census reads digests from."""

    def __init__(self, digests):
        self._shards = {sid: _Shard(d) for sid, d in digests.items()}
        self.shard_ids = tuple(sorted(self._shards))

    def shard(self, shard_id):
        return self._shards[shard_id]


class TestVerdictReasons:
    """Each reason the verdict gives, produced as the soak would meet it."""

    @pytest.mark.parametrize("shape", [
        "encode differs", "decode differs", "get differs",
    ])
    def test_silent_mismatch(self, shape):
        response, reference, damaged, _ = SHAPES[shape]
        ledger = ViolationLedger()
        ledger.judge(response, reference, damaged)
        _counted(_verdict(ledger), "silent corruption")

    @pytest.mark.parametrize("kind, error", [
        ("decode", RuntimeError("boom")),
        ("encode", NotFound("k")),
    ], ids=["runtime-error", "store-error-on-encode"])
    def test_untyped_error(self, kind, error):
        ledger = ViolationLedger()
        ledger.judge(_failed(kind, error), None)
        _counted(_verdict(ledger), "untyped")

    @pytest.mark.parametrize("shape", [
        "clean decode concealed", "degraded without a report",
    ])
    def test_degraded_misuse(self, shape):
        response, reference, damaged, _ = SHAPES[shape]
        ledger = ViolationLedger()
        ledger.judge(response, reference, damaged)
        _counted(_verdict(ledger), "untyped")

    def test_acked_write_lost(self):
        ledger = ViolationLedger()
        gone = ClusterResponse(ok=False, kind="get", error=NotFound("k"))
        audit(_Router(gone), {"k": (1, BLOB)}, ledger)
        _counted(_verdict(ledger), "acked write lost")

    def test_acked_write_corrupted(self):
        ledger = ViolationLedger()
        rot = ClusterResponse(ok=True, kind="get", value=b"rot")
        audit(_Router(rot), {"k": (1, BLOB)}, ledger)
        inv = _verdict(ledger)
        _counted(inv, "acked write corrupted")
        assert inv["durability"]["corrupted"] == 1

    def test_under_replicated_after_repair(self):
        import hashlib

        held = (1, hashlib.blake2b(BLOB, digest_size=16).hexdigest())
        ledger = ViolationLedger()
        # Three alive shards, R = 2, one holder of the winning copy.
        census(_Cluster({"s0": {"k": held}, "s1": {}, "s2": {}}),
               {"k": (1, BLOB)}, ledger)
        inv = _verdict(ledger)
        _counted(inv, "replication not restored")
        assert ledger.violations[0]["reason"] == (
            f"replication not restored: 1/{REPLICATION} holders")
        # Both owners holding it is clean.
        clean = ViolationLedger()
        census(_Cluster({"s0": {"k": held}, "s1": {"k": held}}),
               {"k": (1, BLOB)}, clean)
        assert _verdict(clean)["passed"]

    def test_repair_not_converged(self):
        _counted(_verdict(ViolationLedger(), converged=False),
                 "repair not converged")

    def test_fewer_kills_than_required(self):
        inv = _verdict(ViolationLedger(), kills=1, required=3)
        _counted(inv, "kills short")
        assert inv["kills"] == {"mid_write": 1, "fallback": 0, "required": 3}
        assert _verdict(ViolationLedger(), kills=3, required=3)["passed"]

    @pytest.mark.parametrize("floor", ["undamaged", "all"])
    def test_availability_under_a_floor(self, floor):
        ledger = ViolationLedger()
        answer = _ok("encode", _Encoded(BLOB))
        for _ in range(100):
            ledger.judge(answer, BLOB)
        if floor == "undamaged":
            # One typed failure in 101 clean requests: 0.990 < 0.999.
            ledger.judge(_failed("encode", ShardDown("s0")), None)
        else:
            # Two damaged decodes failing typed: the undamaged floor
            # holds at 1.0, all answers at 100/102 < 0.99.
            for _ in range(2):
                ledger.judge(
                    _failed("decode", CorruptStreamError("x")), None, True
                )
        inv = _verdict(ledger)
        _counted(inv, "availability below floor")
        assert inv["counts"]["availability below floor"] == 1
        assert floor in ledger.violations[0]["reason"]
        assert not ledger.count("silent", "untyped")


class TestLedger:
    # The reason families as the soak spells them -> the contract
    # section's tally for them (None: fails the verdict without one).
    REASONS = {
        "silent corruption: tensor differs from reference": "silent",
        "untyped error RuntimeError": "untyped",
        "untyped: clean blob concealed": "untyped",
        "acked write corrupted: final read not bit-exact": None,
        "acked write lost: final read failed (NotFound)": None,
        "replication not restored: 1/2 holders": None,
        "drill: forced contract violation": None,
    }

    def _ledger(self):
        ledger = ViolationLedger()
        for reason in self.REASONS:
            ledger.record(reason, request=0)
        return ledger

    def test_tallies_by_prefix(self):
        inv = _verdict(self._ledger(), kills=2)
        tallies = list(self.REASONS.values())
        assert inv["contract"]["silent_corruptions"] == tallies.count("silent")
        assert inv["contract"]["untyped_errors"] == tallies.count("untyped")
        assert inv["kills"]["mid_write"] == 2 and not inv["passed"]
        assert len(inv["violations"]) == len(self.REASONS)
        for prefix in ("acked write corrupted", "acked write lost",
                       "replication not restored", "drill"):
            assert inv["counts"][prefix] == 1
        assert inv["durability"]["lost"] == 1
        assert inv["durability"]["under_replicated"] == 1

    @pytest.mark.parametrize("reason", sorted(REASONS))
    def test_any_single_violation_fails_the_verdict(self, reason):
        assert _verdict(ViolationLedger())["passed"]
        ledger = ViolationLedger()
        ledger.record(reason)
        assert not _verdict(ledger)["passed"]

    def test_availability_below_slo_fails_without_violations(self):
        ledger = ViolationLedger()
        ledger.codec[True] = [98, 100]  # damaged answers only
        inv = _verdict(ledger)
        assert inv["availability"]["all"] == 0.98 < ALL_FLOOR
        assert not inv["passed"]
        assert [v["reason"] for v in inv["violations"]] == [
            "availability below floor: all 0.9800 < 0.99"]

    def test_entry_fields_come_from_the_response(self):
        ledger = ViolationLedger()
        ledger.record(
            "untyped error KeyError",
            ClusterResponse(ok=False, kind="get", shard="s2",
                            error=KeyError("k"), trace_id="t1"),
            request=3, key="k-1",
        )
        ledger.record("drill: forced", key="drill")
        served, bare = ledger.violations
        assert served == {
            "request": 3, "key": "k-1", "reason": "untyped error KeyError",
            "kind": "get", "shard": "s2", "rung": "",
            "error_type": "KeyError", "trace_id": "t1",
        }
        assert bare["shard"] == "" and bare["error_type"] == ""

    def test_violations_are_mirrored_into_the_flight_recorder(self):
        previous = flightrecorder.set_recorder(flightrecorder.FlightRecorder())
        try:
            self._ledger()
            events = flightrecorder.get_recorder().snapshot()
        finally:
            flightrecorder.set_recorder(previous)
        assert [e["kind"] for e in events] == (
            ["chaos.violation"] * len(self.REASONS))
        assert events[0]["fields"]["reason"].startswith("silent")

    def test_concurrent_judging_loses_no_update(self):
        ledger = ViolationLedger()
        good = _ok("encode", _Encoded(BLOB))
        bad = _ok("decode", TENSOR + 1)
        per_thread, threads = 400, 8

        def client(index):
            for turn in range(per_thread):
                if turn % 4 == 0:
                    ledger.judge(bad, TENSOR, request=index)
                else:
                    ledger.judge(good, BLOB, request=index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * per_thread
        assert ledger.checked["encode"] == total * 3 // 4
        assert ledger.checked["decode"] == total // 4
        assert ledger.codec[False] == [total, total]
        assert len(ledger.violations) == total // 4


class TestVerdictTail:
    def _report(self, passed):
        ledger = ViolationLedger()
        if not passed:
            ledger.record("drill: forced contract violation")
        return {
            "invariant": _verdict(ledger), "schedule": [{"at_s": 1.0}],
            "slo": {}, "cluster": {}, "disk_faults_applied": [],
            "checked": ledger.checked,
        }

    def test_bundle_only_when_the_verdict_failed(self, tmp_path):
        config = ChaosConfig(seed=11, postmortem_dir=str(tmp_path))
        clean = attach_postmortem(self._report(True), config)
        assert clean["postmortem"] is None and not list(tmp_path.iterdir())
        failed = attach_postmortem(self._report(False), config)
        with open(failed["postmortem"]) as handle:
            bundle = json.load(handle)
        assert bundle["reason"] == "chaos-violation" and bundle["seed"] == 11
        assert bundle["extra"]["schedule"] == [{"at_s": 1.0}]
        assert bundle["extra"]["invariant"]["passed"] is False
        # No directory configured: the verdict still fails, quietly.
        quiet = attach_postmortem(self._report(False), ChaosConfig())
        assert quiet["postmortem"] is None

    def test_format_verdict(self, chaos_report):
        report = copy.deepcopy(chaos_report)
        report["invariant"]["passed"] = False
        report["invariant"]["violations"] = [{"reason": "drill: forced"}]
        report["postmortem"] = "/tmp/bundle.json"
        lines = format_report(report).splitlines()
        assert lines[-3] == (
            "invariant: silent_corruptions=0 untyped_errors=0 -> FAIL")
        assert lines[-2].startswith("  violation: ") and "drill" in lines[-2]
        assert lines[-1] == "postmortem bundle: /tmp/bundle.json"
        assert lines[-4].startswith("durability: ")
        assert lines[-5].startswith("availability: undamaged ")


class TestKillReviveTrain:
    SHARDS = ("s0", "s1", "s2")

    def _train(self, seed=3, duration_s=20.0, kills=3):
        events = build_schedule(
            np.random.default_rng(seed), self.SHARDS, duration_s, kills
        )
        return [e for e in events if e["action"] in ("kill", "revive")]

    def test_pairs_alternate_and_keep_their_distance(self):
        events = self._train()
        assert [e["action"] for e in events] == ["kill", "revive"] * 3
        kills, revives = events[::2], events[1::2]
        assert [k["stage"] for k in kills] == list(chaos_mod._KILL_STAGES)
        for kill, revive in zip(kills, revives):
            assert revive["shard"] == kill["shard"] in self.SHARDS
            assert revive["at_s"] == pytest.approx(kill["at_s"] + REVIVE_AFTER_S)
        assert kills[0]["at_s"] == pytest.approx(2.0)
        for earlier, later in zip(kills, kills[1:]):
            # One shard down at a time: revive window plus slack apart.
            assert later["at_s"] - earlier["at_s"] >= (
                REVIVE_AFTER_S + KILL_SLACK_S - 1e-9)

    def test_seeded(self):
        assert self._train(seed=5) == self._train(seed=5)
        assert self._train(seed=5) != self._train(seed=6)
        every = build_schedule(np.random.default_rng(5), self.SHARDS, 20.0, 3)
        actions = [e["action"] for e in every]
        assert actions.count("hang") == chaos_mod.HANGS
        assert actions.count("disk") == chaos_mod.DISK_FAULTS
        assert [e["at_s"] for e in every] == sorted(e["at_s"] for e in every)

    def test_short_soak_still_spaces_the_kills(self):
        events = self._train(seed=0, duration_s=0.4, kills=2)
        first, second = events[0]["at_s"], events[2]["at_s"]
        assert first == pytest.approx(0.04)
        assert second == pytest.approx(first + REVIVE_AFTER_S + KILL_SLACK_S)


class TestWriteJson:
    def test_writes_the_document_as_is(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        document = {"b": 1, "a": 2, "invariant": {"passed": True}}
        monkeypatch.setattr(chaos_mod, "run_chaos", lambda config: document)
        monkeypatch.setattr(chaos_mod, "format_report", lambda report: "")
        path = tmp_path / "doc.json"
        assert main(["chaos", "--output", str(path)]) == 0
        assert json.loads(path.read_text()) == document
        assert capsys.readouterr().out.strip() == f"wrote {path}"
