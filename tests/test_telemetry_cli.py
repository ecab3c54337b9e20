"""Tests for the telemetry-facing CLI surface: llm265 stats and --trace."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.codec.entropy import native
from repro.models.synthetic_weights import weight_like


@pytest.fixture()
def tensor_file(tmp_path):
    path = tmp_path / "weight.npy"
    np.save(path, weight_like(64, 64, seed=5))
    return str(path)


class TestStatsCommand:
    def test_stats_prints_exact_bit_dissection(self, tensor_file, capsys):
        assert main(["stats", tensor_file, "--qp", "24"]) == 0
        out = capsys.readouterr().out
        assert "bitstream dissection" in out
        assert "exact" in out and "MISMATCH" not in out
        for element in ("header", "sig", "level", "flush"):
            assert element in out
        assert "plan" in out and "write" in out  # stage timings
        assert "bits/value" in out
        lines = out.splitlines()
        assert ["kernels", native.kernel_status()["library"]] in (
            line.split() for line in lines
        )
        assert f"simd lanes {native.simd_lanes()}" in (
            " ".join(line.split()) for line in lines
        )

    def test_stats_with_bitrate_target_shows_rate_control(self, tensor_file, capsys):
        assert main(["stats", tensor_file, "--bits", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "ratecontrol.iterations" in out
        assert "exact" in out and "MISMATCH" not in out

    def test_stats_leaves_telemetry_disabled(self, tensor_file, capsys):
        assert main(["stats", tensor_file, "--qp", "24"]) == 0
        capsys.readouterr()
        assert telemetry.current() is None

    def test_stats_alternate_codec(self, tensor_file, capsys):
        assert main(["stats", tensor_file, "--qp", "24", "--codec", "h264"]) == 0
        out = capsys.readouterr().out
        assert "h264" in out


class TestTraceFlag:
    def test_trace_writes_valid_chrome_trace(self, tensor_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        blob = tmp_path / "w.lv265"
        code = main(
            ["--trace", str(trace), "compress", tensor_file, str(blob), "--qp", "20"]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        assert "tensor.encode" in names
        assert "group" in names

    def test_trace_with_stats_reuses_one_session(self, tensor_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["--trace", str(trace), "stats", tensor_file, "--qp", "24"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out
        doc = json.loads(trace.read_text())
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "tensor.decode" in names  # stats decodes too, same session

    def test_trace_restores_disabled_state(self, tensor_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        blob = tmp_path / "w.lv265"
        main(["--trace", str(trace), "compress", tensor_file, str(blob), "--qp", "20"])
        capsys.readouterr()
        assert telemetry.current() is None


class TestInfoSummary:
    def test_info_shows_summary_line(self, tensor_file, tmp_path, capsys):
        blob = str(tmp_path / "w.lv265")
        main(["compress", tensor_file, blob, "--qp", "20"])
        capsys.readouterr()
        assert main(["info", blob]) == 0
        out = capsys.readouterr().out
        assert "CompressedTensor(" in out
        assert "budget_met=True" in out
        assert "shape" in out and "h265" in out
