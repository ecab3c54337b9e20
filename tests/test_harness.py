"""The pieces every soak shares (:mod:`repro.harness`).

One contract-check table over response shape x typed-error vocabulary x
``damaged``, the reason prefixes the verdicts count by, the ledger under
concurrent client threads, the kill/revive train and the JSON writer.
The soaks that compose these are tested in ``test_serving_chaos``,
``test_cluster_chaos`` and ``test_cluster_durability``.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro.cluster.chaos import CLUSTER_TYPED_ERRORS
from repro.cluster.durability import DURABILITY_TYPED_ERRORS
from repro.cluster.router import ClusterResponse, ClusterUnavailable
from repro.cluster.shard import ShardDown
from repro.cluster.store import NotFound
from repro.harness import (
    ViolationLedger,
    attach_postmortem,
    availability_invariant,
    check_response,
    format_verdict,
    kill_revive_events,
    write_json,
)
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.serving.broker import Overloaded
from repro.serving.chaos import TYPED_ERRORS
from repro.serving.service import ServeResponse
from repro.telemetry import flightrecorder

VOCABULARIES = {
    "serving": TYPED_ERRORS,
    "cluster": CLUSTER_TYPED_ERRORS,
    "durability": DURABILITY_TYPED_ERRORS,
}

FIELDS = ("rung", "error_type", "trace_id")
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
    "ShardDown": (ShardDown("s1"), {"cluster", "durability"}),
    "ClusterUnavailable": (
        ClusterUnavailable("no shard"), {"cluster", "durability"},
    ),
    "NotFound": (NotFound("k"), {"durability"}),
    "RuntimeError": (RuntimeError("boom"), set()),
    "KeyError": (KeyError("k"), set()),
}


class TestContractTable:
    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_ok_responses(self, shape, vocabulary):
        response, reference, damaged, expected = SHAPES[shape]
        reason = check_response(
            response, reference, VOCABULARIES[vocabulary], damaged
        )
        assert reason == expected

    @pytest.mark.parametrize("damaged", [False, True])
    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("name", sorted(ERRORS))
    def test_failed_responses(self, name, vocabulary, damaged):
        error, typed_in = ERRORS[name]
        for kind in ("encode", "decode", "put", "get"):
            reason = check_response(
                _failed(kind, error), None, VOCABULARIES[vocabulary], damaged
            )
            if vocabulary in typed_in:
                assert reason is None
            else:
                assert reason == f"untyped error {name}"

    def test_every_reason_carries_a_counted_prefix(self):
        reasons = [expected for *_, expected in SHAPES.values() if expected]
        reasons.append(check_response(
            _failed("encode", RuntimeError("x")), None, TYPED_ERRORS
        ))
        assert all(r.startswith(("silent", "untyped")) for r in reasons)


class TestLedger:
    # The reason families as the soaks spell them -> the durability
    # verdict's tally for them (None: fails the verdict without one).
    REASONS = {
        "silent corruption: tensor differs from reference": "silent",
        "untyped error RuntimeError": "untyped",
        "untyped: clean blob concealed": "untyped",
        "acked write corrupted: final read not bit-exact": "silent",
        "acked write lost: final read failed (NotFound)": None,
        "replication not restored: 1/2 holders": None,
        "drill: forced contract violation": None,
    }

    def _ledger(self):
        ledger = ViolationLedger("test.violation", ("encode", "decode"), FIELDS)
        for reason in self.REASONS:
            ledger.record(reason, request=0)
        return ledger

    def test_tallies_by_prefix(self):
        ledger = self._ledger()
        # Stateless soaks: silent / untyped.
        inv = availability_invariant(ledger, 1.0, 0.99, kills=2)
        assert inv["silent_corruptions"] == 1
        assert inv["untyped_errors"] == 2
        assert inv["kills"] == 2 and not inv["passed"]
        assert len(inv["violations"]) == len(self.REASONS)
        # The durability verdict also counts a corrupted acked write.
        tallies = list(self.REASONS.values())
        assert ledger.count("silent", "acked write corrupted") == (
            tallies.count("silent"))
        assert ledger.count("untyped") == tallies.count("untyped")
        for prefix in ("acked write", "replication not restored", "drill"):
            assert ledger.count(prefix) >= 1

    @pytest.mark.parametrize("reason", sorted(REASONS))
    def test_any_single_violation_fails_the_verdict(self, reason):
        ledger = ViolationLedger("test.violation", ("encode",), FIELDS)
        assert availability_invariant(ledger, 1.0, 0.99)["passed"]
        ledger.record(reason)
        assert not availability_invariant(ledger, 1.0, 0.99)["passed"]

    def test_availability_below_slo_fails_without_violations(self):
        ledger = ViolationLedger("test.violation", ("encode",), FIELDS)
        assert not availability_invariant(ledger, 0.98, 0.99)["passed"]

    def test_entry_fields_come_from_the_response(self):
        ledger = ViolationLedger(
            "test.violation", ("get",), ("error_type", "shard"))
        ledger.record(
            "untyped error KeyError",
            ClusterResponse(ok=False, kind="get", shard="s2",
                            error=KeyError("k")),
            op="get", key="k-1",
        )
        ledger.record("drill: forced", op="drill", key="drill")
        served, bare = ledger.violations
        assert served == {
            "op": "get", "key": "k-1", "reason": "untyped error KeyError",
            "error_type": "KeyError", "shard": "s2",
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
            ["test.violation"] * len(self.REASONS))
        assert events[0]["fields"]["reason"].startswith("silent")

    def test_concurrent_judging_loses_no_update(self):
        ledger = ViolationLedger("test.violation", ("encode", "decode"), FIELDS)
        good = _ok("encode", _Encoded(BLOB))
        bad = _ok("decode", TENSOR + 1)
        per_thread, threads = 400, 8

        def client(index):
            for turn in range(per_thread):
                if turn % 4 == 0:
                    ledger.judge(bad, TENSOR, TYPED_ERRORS, request=index)
                else:
                    ledger.judge(good, BLOB, TYPED_ERRORS, request=index)

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
        assert ledger.checked == {
            "encode": threads * per_thread * 3 // 4,
            "decode": threads * per_thread // 4,
        }
        assert len(ledger.violations) == threads * per_thread // 4


class _Config:
    seed = 11

    def __init__(self, postmortem_dir):
        self.postmortem_dir = postmortem_dir


class TestVerdictTail:
    def _report(self, passed):
        ledger = ViolationLedger("test.violation", ("encode",), FIELDS)
        if not passed:
            ledger.record("drill: forced contract violation")
        return {"invariant": availability_invariant(ledger, 1.0, 0.99)}

    def test_bundle_only_when_the_verdict_failed(self, tmp_path):
        clean = attach_postmortem(
            self._report(True), _Config(str(tmp_path)), "test-reason")
        assert clean["postmortem"] is None and not list(tmp_path.iterdir())
        failed = attach_postmortem(
            self._report(False), _Config(str(tmp_path)), "test-reason",
            schedule=[{"at_s": 1.0}],
        )
        with open(failed["postmortem"]) as handle:
            bundle = json.load(handle)
        assert bundle["reason"] == "test-reason" and bundle["seed"] == 11
        assert bundle["extra"]["schedule"] == [{"at_s": 1.0}]
        assert bundle["extra"]["invariant"]["passed"] is False
        # No directory configured: the verdict still fails, quietly.
        quiet = attach_postmortem(
            self._report(False), _Config(None), "test-reason")
        assert quiet["postmortem"] is None

    def test_format_verdict(self):
        report = self._report(False)
        report["postmortem"] = "/tmp/bundle.json"
        lines = format_verdict(report)
        assert lines[0] == "availability: 1.0000 (slo 0.99)"
        assert lines[1] == (
            "invariant: silent_corruptions=0 untyped_errors=0 -> FAIL")
        assert lines[2].startswith("  violation: ") and "drill" in lines[2]
        assert lines[-1] == "postmortem bundle: /tmp/bundle.json"
        # A verdict with no availability claim (durability) has no tallies.
        assert format_verdict(
            {"invariant": {"passed": True, "violations": []}}
        ) == ["invariant: PASS"]


class TestKillReviveTrain:
    SHARDS = ("s0", "s1", "s2")

    def _train(self, seed=3, **overrides):
        settings = dict(first=0.15, spread=0.55, slack_s=0.5, jitter=0.1,
                        not_before_s=2.0)
        settings.update(overrides)
        return kill_revive_events(
            np.random.default_rng(seed), self.SHARDS, 20.0, 3, 1.5, **settings
        )

    def test_pairs_alternate_and_keep_their_distance(self):
        events = self._train()
        assert [e["action"] for e in events] == ["kill", "revive"] * 3
        kills, revives = events[::2], events[1::2]
        for kill, revive in zip(kills, revives):
            assert revive["shard"] == kill["shard"] in self.SHARDS
            assert revive["at_s"] == pytest.approx(kill["at_s"] + 1.5)
        assert kills[0]["at_s"] >= 2.0
        for earlier, later in zip(kills, kills[1:]):
            # One shard down at a time: revive window plus slack apart.
            assert later["at_s"] - earlier["at_s"] >= 2.0 - 1e-9

    def test_seeded(self):
        assert self._train(seed=5) == self._train(seed=5)
        assert self._train(seed=5) != self._train(seed=6)

    def test_short_soak_still_spaces_the_kills(self):
        events = kill_revive_events(
            np.random.default_rng(0), self.SHARDS, 0.4, 2, 0.5,
            first=0.1, spread=0.5, slack_s=0.3,
        )
        first, second = events[0]["at_s"], events[2]["at_s"]
        assert first == pytest.approx(0.04)
        assert second == pytest.approx(first + 0.8)


class TestWriteJson:
    def test_writes_the_document_as_is(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"b": 1, "a": 2})
        assert json.loads(path.read_text()) == {"a": 2, "b": 1}
        write_json(str(path), {"passed": True})
        assert json.loads(path.read_text()) == {"passed": True}
