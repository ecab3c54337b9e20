"""The soak's durability family and the CLI surfaces.

The shared soak must hold the durability invariant (0 acked writes
lost or corrupted, replication healed, the kill count reached) through
mid-write kills and disk faults; its schedule and verdict must be
seeded-reproducible; the drill must exercise the violation/postmortem
path without breaking anything; ``llm265 chaos`` is one mode; the
``llm265 verify`` store scanner must map clean / torn / corrupt onto
exit codes 0 / 3 / 2; and real container-v3 payloads must round-trip
through the durable path bit-exact.
"""

import json
import os
import struct

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.cli import main
from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.chaos import (
    TYPED_ERRORS,
    ChaosConfig,
    format_report,
    run_chaos,
)
from repro.cluster.store import ShardStore


class TestDurabilitySoak:
    def test_small_soak_holds_the_full_invariant(self, chaos_report):
        inv = chaos_report["invariant"]
        assert inv["passed"], inv["violations"]
        assert inv["durability"] == {
            "acked_writes": inv["durability"]["acked_writes"],
            "lost": 0, "corrupted": 0, "under_replicated": 0,
            "repair_converged": True,
        }
        assert inv["durability"]["acked_writes"] > 0
        assert inv["kills"]["mid_write"] + inv["kills"]["fallback"] >= (
            inv["kills"]["required"])
        # Disk faults landed, the scrubber and compaction ran beside
        # the traffic, and repair ran on re-admission during it.
        assert chaos_report["faults_injected"]["disk"] >= 1
        assert chaos_report["scrub"]["checked"] > 0
        assert chaos_report["compactions"] > 0
        assert chaos_report["cluster"]["router"]["repair_passes"] >= 1
        assert "durability: " in format_report(chaos_report)

    def test_soak_is_seeded_reproducible(self):
        def run(seed):
            return run_chaos(ChaosConfig(
                requests=120, seed=seed, kills=1,
            ))

        first, second = run(3), run(3)
        # Same seed, same stream and schedule: kill stages and targets,
        # hang and disk-fault times, which decodes are damaged and how
        # many requests of each kind ran -- and the same verdict, though
        # thread timing is not the same.
        assert first["schedule"] == second["schedule"]
        assert first["checked"] == second["checked"]
        assert first["faults_injected"]["payload"] == (
            second["faults_injected"]["payload"])
        for key in ("passed", "counts", "contract"):
            assert first["invariant"][key] == second["invariant"][key]
        assert first["invariant"]["passed"]
        other = run(4)
        assert other["schedule"] != first["schedule"]
        assert other["checked"] != first["checked"]

    def test_drill_violation_trips_verdict_and_postmortem(self, tmp_path):
        pm_dir = str(tmp_path / "pm")
        report = run_chaos(ChaosConfig(
            requests=60, kills=0,
            force_violation=True, postmortem_dir=pm_dir,
        ))
        inv = report["invariant"]
        assert not inv["passed"]
        assert any(
            v["reason"].startswith("drill") for v in inv["violations"]
        )
        # The drill is synthetic: nothing was actually lost.
        assert inv["durability"]["lost"] == 0
        assert inv["contract"]["silent_corruptions"] == 0
        bundle = report["postmortem"]
        assert bundle and os.path.exists(bundle)
        with open(bundle) as handle:
            doc = json.load(handle)
        assert doc["reason"] == "chaos-violation"
        assert doc["seed"] == 0
        assert doc["extra"]["invariant"]["passed"] is False
        assert doc["extra"]["cluster"]["router"] == report["cluster"]["router"]
        assert "invariant: " in format_report(report)
        assert "-> FAIL" in format_report(report)

    def test_typed_error_vocabulary_covers_the_store(self):
        from repro.cluster.router import WriteQuorumFailed
        from repro.cluster.store import NotFound, Quarantined

        for error in (
            NotFound("k"),
            Quarantined("k", "checksum mismatch"),
            WriteQuorumFailed("k", 1, 2),
        ):
            assert isinstance(error, TYPED_ERRORS["get"])
            assert isinstance(error, TYPED_ERRORS["put"])
        assert not isinstance(RuntimeError("x"), TYPED_ERRORS["get"])
        assert not isinstance(NotFound("k"), TYPED_ERRORS["encode"])

    def test_disk_fault_counters_are_recorded(self, tmp_path):
        from repro.resilience.faults import FaultInjector

        with telemetry.session() as registry:
            injector = FaultInjector(seed=3)
            for index, name in enumerate(("a", "b", "c")):
                path = str(tmp_path / name)
                with open(path, "wb") as handle:
                    handle.write(os.urandom(64))
            # The span faults the soak uses count under the same names
            # as the whole-file ones.
            for mode in ("bit_flip", "truncate", "unlink"):
                assert injector.damage_span(str(tmp_path / "a"), 8, 32, mode)
            injector.file_bit_flip(str(tmp_path / "a"))
            injector.file_truncate(str(tmp_path / "b"))
            injector.file_unlink(str(tmp_path / "c"))
            counters = dict(registry.counters)
        assert counters["faults.disk.bit_flips"] == 2
        assert counters["faults.disk.truncations"] == 2
        assert counters["faults.disk.unlinks"] == 2
        assert counters["faults.injected"] == 6


class TestContainerPayloads:
    def test_container_v3_round_trips_through_the_durable_path(
        self, tmp_path
    ):
        from repro.tensor.codec import CompressedTensor, TensorCodec

        rng = np.random.default_rng(7)
        tensor = rng.standard_normal((64, 64)).astype(np.float32)
        codec = TensorCodec(tile=32)
        blob = codec.encode(tensor, qp=24.0).to_bytes()

        config = ClusterConfig(
            shards=3, replication=2,
            store_root=str(tmp_path / "stores"), store_fsync=False,
        )
        with ClusterRouter(config) as router:
            assert router.put(blob, "weights/blocks.0").ok
            served = router.get("weights/blocks.0")
            assert served.ok and served.value == blob
        # The served bytes are a *valid container*, not merely equal:
        # decode must reconstruct the tensor within codec tolerance.
        decoded = codec.decode(CompressedTensor.from_bytes(served.value))
        assert decoded.shape == tensor.shape
        assert float(np.mean((decoded - tensor) ** 2)) < 1.0


class TestVerifyCli:
    @pytest.fixture
    def store_dir(self, tmp_path):
        store = ShardStore(str(tmp_path / "s0"), shard_id="s0")
        store.put("a", b"payload-a" * 30, 1)
        store.put("b", b"payload-b" * 30, 2)
        store.close()
        return store

    def test_clean_store_exits_zero(self, store_dir, capsys):
        assert main(["verify", store_dir.directory, "--deep"]) == 0
        assert "OK (store" in capsys.readouterr().out

    def test_torn_tail_exits_three(self, store_dir, capsys):
        with open(store_dir.journal_path, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0))
        assert main(["verify", store_dir.directory]) == 3
        out = capsys.readouterr().out
        assert "TORN" in out and "[torn]" in out

    def test_corruption_exits_two_even_with_a_torn_tail(
        self, store_dir, capsys
    ):
        with open(store_dir.journal_path, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0))
        offset, _ = store_dir.payload_span("a")
        with open(store_dir.journal_path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\x00\x01")
        assert main(["verify", store_dir.directory, "--deep"]) == 2
        assert "DAMAGED" in capsys.readouterr().out

    def test_leftover_compaction_exits_three_until_reopened(
        self, store_dir, capsys
    ):
        # A compaction killed before its rename: journal.log is whole.
        with open(store_dir.compact_path, "wb") as handle:
            handle.write(b"LVJ1\x02a partial copy")
        assert main(["verify", store_dir.directory, "--deep"]) == 3
        out = capsys.readouterr().out
        assert "TORN" in out and "journal.compact" in out
        ShardStore(store_dir.directory, shard_id="s0").close()
        assert main(["verify", store_dir.directory, "--deep"]) == 0

    def test_verify_is_read_only(self, store_dir):
        with open(store_dir.journal_path, "ab") as handle:
            handle.write(b"\xde\xad")
        before = os.path.getsize(store_dir.journal_path)
        main(["verify", store_dir.directory])
        assert os.path.getsize(store_dir.journal_path) == before
        # Crash recovery (not verify) is what repairs the tail.
        store = ShardStore(store_dir.directory, shard_id="s0")
        assert store.get("a") == b"payload-a" * 30


class TestChaosCli:
    def test_soak_passes_and_writes_json(self, tmp_path, capsys):
        out_json = str(tmp_path / "report.json")
        code = main([
            "chaos", "--requests", "200", "--kills", "1", "--seed", "1",
            "--output", out_json,
        ])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "-> PASS" in captured
        with open(out_json) as handle:
            inv = json.load(handle)["invariant"]
        assert inv["passed"] and inv["kills"]["mid_write"] >= 1

    def test_one_mode_one_kills_default(self, capsys):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["chaos"]).kills == 3
        for gone in ("--cluster", "--durability"):
            with pytest.raises(SystemExit):
                parser.parse_args(["chaos", gone])
        assert "unrecognized arguments" in capsys.readouterr().err
