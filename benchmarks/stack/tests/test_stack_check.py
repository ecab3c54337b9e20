"""A wrong answer is a failed op, and a failed op is a non-zero exit."""

import json

import numpy as np
import pytest

import check
import inputs
import layers
import run as stack_run
import spans
import workloads


class CorruptingCluster(layers.ClusterLevel):
    """Flips one payload byte of every blob on its way back into the router."""

    def _decode(self, blob, key):
        damaged = bytearray(blob)
        damaged[-20] ^= 0x5A
        return super()._decode(bytes(damaged), key)


def test_corrupted_blob_is_a_failed_op():
    workload = workloads.PairWorkload("cluster_kv_pages", seed=0)
    workload.import_program()
    level = CorruptingCluster()
    try:
        result = workload.run_phase(level, [[0, 1, 2]])
    finally:
        level.close()
    assert result.tally.attempted == 6
    assert result.tally.failed == 3  # degraded, typed error or over the ceiling: never counted ok
    assert result.tally.reasons


def test_error_over_the_ceiling_and_wrong_dtype_fail():
    tally = check.Tally("weights_fixed_qp")
    original = inputs.weight_tensor(0, "weights_fixed_qp", 0)
    assert tally.tensor_reason(original, original.copy()) is None
    assert "ceiling" in tally.tensor_reason(original, np.zeros_like(original))
    assert "dtype" in tally.tensor_reason(original, original.astype(np.float64))
    assert "shape" in tally.tensor_reason(original, original[:-1])


class StaleStore:
    """A store door that answers gets with the value before the last put."""

    name = "cluster"

    def __init__(self):
        self.current, self.previous = {}, {}

    def put(self, key, blob, version):
        self.previous[key] = self.current.get(key, blob)
        self.current[key] = blob
        return None

    def get(self, key):
        return None, self.previous[key]


def test_stale_get_is_a_failed_op(tmp_path):
    pool = [bytes([i]) * 64 for i in range(inputs.STORE_POOL)]
    workloads.write_pool(str(tmp_path / workloads.POOL_FILE), pool)
    workload = workloads.StoreWorkload(seed=0, run_dir=str(tmp_path), root="", keys=8)
    level = StaleStore()
    workloads.populate(level, pool, 8)
    plan = [
        inputs.StoreOp(False, 3, -1, -1),  # populated value: fine
        inputs.StoreOp(True, 3, 5, 123),
        inputs.StoreOp(False, 3, -1, -1),  # answered with the populated value: stale
    ]
    tally = check.Tally("store_put_get")
    workloads.run_store_ops(workload, level, 0, plan, spans.Recorder(), tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "last acknowledged put" in tally.reasons[0]


def test_failed_ops_make_the_command_exit_non_zero(monkeypatch, capsys):
    def fake_child(self, role, workload, seed, ops, run_dir, root="", header=None):
        if role == "prepare":
            return {"kernels": {"scan": "ready"}}
        setup = {"setup_s": 0.5, "import_s": 0.3, "construct_s": 0.1, "first_op_s": 0.1}
        if role == "setup":
            return {"setup": setup, "attempted": 2, "failed": 0, "reasons": []}
        return {
            "setup": setup,
            "metrics": {"write_p10_ms": 1.0, "read_p10_ms": 1.0, "ops_per_s": 10.0,
                        "bits_per_value": 3.0, "nmse": 0.05, "peak_rss_mb": 80.0},
            "attempted": 100, "failed": 2,
            "reasons": ["c0-7: get returned bytes other than the last acknowledged put"],
            "report": {"timed_ops": 100, "timed_wall_s": 1.0, "write_samples": 10,
                       "read_samples": 90, "tail_percentile": 50.0, "tail_write_ms": 1.0,
                       "tail_read_ms": 1.0, "calib_before_ms": 1.0, "calib_after_ms": 1.0,
                       "clients": 2, "write_p50_ms": 1.2, "read_p50_ms": 1.1,
                       "op_bytes": 7807},
        }

    monkeypatch.setattr(stack_run.Runner, "child", fake_child)
    status = stack_run.main(["--workload", "store_put_get", "--scale", "0.05", "--smoke"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert last["failed"] == 2 and last["correct"] is False
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_gated_runs_refuse_scales_below_the_floor():
    with pytest.raises(SystemExit, match="gated floor"):
        stack_run.main(["--workload", "weights_fixed_qp", "--scale", "0.05"])
