"""One small pass of all four workloads: every named metric, and the spans."""

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import spans

STACK = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(STACK))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _smoke(workload):
    done = subprocess.run(
        [sys.executable, os.path.join(STACK, "run.py"), "--workload", workload,
         "--scale", "0.05", "--smoke", "--trace", "both"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return workload, done


@pytest.fixture(scope="module")
def smoke_runs():
    # two at a time: this only checks presence, and halves the wall time
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(_smoke, WORKLOADS))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_present_finite_and_has_its_unit(smoke_runs, workload):
    done = smoke_runs[workload]
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    # --trace both ends with the per-layer object ...
    for entry in SPEC["per_layer"]:
        got = last["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert math.isfinite(got["value"]), entry["name"]
    assert len(last["metrics"]) == len(SPEC["per_layer"])
    # ... and prints the end-to-end table above it, by name and unit
    table = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            table[fields[0]] = (float(fields[1]), fields[2])
    for entry in SPEC["end_to_end"]:
        value, unit = table[entry["name"]]
        assert unit == entry["unit"]
        assert math.isfinite(value) and value > 0
    assert "usable=" in done.stdout and "kernels:" in done.stdout and "calib_ms" in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_spans_nest_and_share_op_ids(smoke_runs, workload):
    assert smoke_runs[workload].returncode == 0
    with open(os.path.join(STACK, ".run", f"{workload}.trace.json")) as handle:
        trace = json.load(handle)
    assert trace["header"]["workload"] == workload
    by_id = {span["id"]: span for span in trace["spans"]}
    assert len(by_id) == len(trace["spans"])
    children = [span for span in trace["spans"] if span["parent"]]
    assert children and len(children) < len(trace["spans"])
    for span in children:
        parent = by_id[span["parent"]]
        assert parent["parent"] == 0
        assert parent["op"] == span["op"] and parent["phase"] == span["phase"]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    phases = {span["phase"].split("/")[1] for span in trace["spans"]}
    assert {"codec", "tensor", "serving", "cluster", "shard", "store"} <= phases
    # the same op appears at every entry point of its ladder
    own = [s for s in trace["spans"] if s["phase"].startswith(workload) and not s["parent"]]
    per_phase = {}
    for span in own:
        per_phase.setdefault(span["phase"], set()).add(span["op"])
    assert len(per_phase) >= 2
    assert len({frozenset(ops) for ops in per_phase.values()}) == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert spans.tail_percentile(5) == 50.0
    assert spans.tail_percentile(20) == 50.0
    assert spans.tail_percentile(40) == 75.0
    assert spans.tail_percentile(99) == 75.0
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(999) == 95.0
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(10_000) == 99.9
    assert spans.tail_percentile(100_000) == 99.99
    samples = list(range(1, 201))
    p, value = spans.tail_ms([s / 1e3 for s in samples])
    assert p == 95.0 and value == pytest.approx(190.0)
    assert len([s for s in samples if s > 190]) == 10


def test_production_codec_survives_a_constructor_without_rd_search():
    class SlimCodec:
        """``TensorCodec`` after ROADMAP item 2 deleted the search modes."""

        def __init__(self, tile=256, parallel=None, encode="native"):
            self.tile, self.parallel, self.encode = tile, parallel, encode

    fields = layers.production_fields()
    assert "rd_search" in fields and "name" not in fields
    slim = layers.production_codec(64, codec_class=SlimCodec)
    assert slim.tile == 64 and slim.parallel == fields["parallel"]
    assert layers.production_codec(64, serial=True, codec_class=SlimCodec).parallel is None
    assert set(layers.accepted_kwargs(SlimCodec.__init__, fields)) == {"parallel", "encode"}
    real = layers.production_codec(64)
    assert real.rd_search == fields["rd_search"] and real.tile == 64
