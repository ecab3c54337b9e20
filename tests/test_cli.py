"""Tests for the llm265 command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.models.synthetic_weights import weight_like


@pytest.fixture()
def tensor_file(tmp_path):
    path = tmp_path / "weight.npy"
    np.save(path, weight_like(64, 64, seed=0))
    return str(path)


class TestCLI:
    def test_compress_decompress_roundtrip(self, tensor_file, tmp_path, capsys):
        blob = str(tmp_path / "weight.lv265")
        out = str(tmp_path / "restored.npy")
        assert main(["compress", tensor_file, blob, "--bits", "3.0"]) == 0
        assert main(["decompress", blob, out]) == 0
        original = np.load(tensor_file)
        restored = np.load(out)
        assert restored.shape == original.shape
        assert np.mean((restored - original) ** 2) < np.var(original)
        stdout = capsys.readouterr().out
        assert "bits/value" in stdout

    def test_compress_with_qp(self, tensor_file, tmp_path):
        blob = str(tmp_path / "w.lv265")
        assert main(["compress", tensor_file, blob, "--qp", "20"]) == 0

    def test_compress_with_mse(self, tensor_file, tmp_path):
        blob = str(tmp_path / "w.lv265")
        assert main(["compress", tensor_file, blob, "--mse", "1e-4"]) == 0

    def test_compress_alternate_codec(self, tensor_file, tmp_path):
        blob = str(tmp_path / "w.lv265")
        assert main(
            ["compress", tensor_file, blob, "--qp", "20", "--codec", "h264"]
        ) == 0
        out = str(tmp_path / "r.npy")
        assert main(["decompress", blob, out]) == 0

    def test_info(self, tensor_file, tmp_path, capsys):
        blob = str(tmp_path / "w.lv265")
        main(["compress", tensor_file, blob, "--bits", "2.5"])
        capsys.readouterr()
        assert main(["info", blob]) == 0
        stdout = capsys.readouterr().out
        assert "shape" in stdout and "h265" in stdout

    def test_profile(self, tensor_file, capsys):
        assert main(["profile", tensor_file]) == 0
        stdout = capsys.readouterr().out
        assert "entropy" in stdout and "channel structure" in stdout

    def test_sweep(self, tensor_file, capsys):
        assert main(["sweep", tensor_file, "--qps", "16,32"]) == 0
        stdout = capsys.readouterr().out
        assert "bits/value" in stdout
        assert len(stdout.strip().splitlines()) == 3

    def test_conflicting_rate_targets_rejected(self, tensor_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "compress",
                    tensor_file,
                    str(tmp_path / "w.lv265"),
                    "--bits",
                    "3",
                    "--qp",
                    "20",
                ]
            )

    def test_qp_outside_the_codable_range_is_a_usage_error(
        self, tensor_file, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["compress", tensor_file, str(tmp_path / "w.lv265"), "--qp", "60"])
        assert exc.value.code == 2
        assert "qp must be a finite number in [0, 51]" in capsys.readouterr().err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
