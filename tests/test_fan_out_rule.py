"""The one fan-out rule, :func:`repro.parallel.group_runs`, in each direction.

An encode fans out exactly when the config allows more than one worker,
the process may run on more than one CPU, the kernel library is loaded
and there is more than one pass-1 group; a decode keeps the same rule
plus its own conditions: an intra stream, no concealment, no damage, at
least ``decoder._PARALLEL_MIN_SLICES`` slices and
``decoder._PARALLEL_MIN_BYTES`` of payload.  Each case counts the
pool's dispatches (``pool_stats()["dispatches"]``) and holds the fanned
bytes / samples to the serial ones.  The last test runs the real
affinity call: a child process pinned to one CPU never dispatches and
never starts the keep-awake helper.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.codec import decoder as decoder_mod
from repro.codec.decoder import FrameDecoder
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.entropy import native
from repro.codec.reference import ReferenceEncoder
from repro.parallel import ParallelConfig, group_runs, pool_stats
from repro.parallel import pool as pool_mod

pytestmark = pytest.mark.pure_python

LOADED = native.available()


def _noise(count, shape=(256, 256), seed=5):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, shape).astype(np.uint8) for _ in range(count)]


def _dispatched(monkeypatch, cpus, kernels, run):
    """``run()``'s result and the dispatches it made, with ``cpus``
    usable CPUs and the kernel library loaded or not."""
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: cpus)
    if not kernels:
        monkeypatch.setattr(native, "available", lambda: False)
    before = pool_stats()["dispatches"]
    result = run()
    return result, pool_stats()["dispatches"] - before


class TestGroupRuns:
    # Which calls fan out is the direction tests' below; these are the
    # runs a fan-out is cut into.
    @pytest.mark.parametrize(
        "workers, cpus, groups, want",
        [
            (2, 2, 2, [(0, 1), (1, 2)]),
            (2, 2, 3, [(0, 2), (2, 3)]),
            (3, 4, 3, [(0, 1), (1, 2), (2, 3)]),
            (4, 2, 5, [(0, 3), (3, 5)]),  # no more runs than usable CPUs
            (2, 8, 4, [(0, 2), (2, 4)]),  # ... nor than workers
            (4, 4, 5, [(0, 2), (2, 4), (4, 5)]),  # three runs fit five groups
            (0, 2, 4, [(0, 2), (2, 4)]),  # 0 = the usable CPUs
        ],
    )
    def test_runs_of_whole_groups(self, workers, cpus, groups, want, monkeypatch):
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: cpus)
        runs = group_runs(ParallelConfig(workers=workers), groups, kernels=True)
        assert [(run.start, run.stop) for run in runs] == want

    def test_the_cpus_are_the_affinity_mask(self):
        cpus = pool_mod.usable_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert cpus == len(os.sched_getaffinity(0))
        runs = group_runs(ParallelConfig(workers=cpus + 1), cpus, kernels=True)
        assert (1 if runs is None else len(runs)) == cpus
        assert ParallelConfig().resolved_workers() == cpus


#: (workers, usable CPUs, kernels, 256 x 256 frames = groups, dispatches)
ENCODE_CASES = [
    pytest.param(2, 2, True, 2, 1, id="two-groups"),  # no slice or byte bound
    pytest.param(2, 2, True, 3, 1, id="three-groups"),
    pytest.param(4, 4, True, 3, 1, id="four-workers"),
    pytest.param(0, 2, True, 2, 1, id="workers-0"),
    pytest.param(2, 2, True, 1, 0, id="one-group"),
    pytest.param(1, 2, True, 2, 0, id="one-worker"),
    pytest.param(None, 2, True, 2, 0, id="no-config"),
    pytest.param(0, 1, True, 2, 0, id="workers-0-one-cpu"),
    pytest.param(2, 1, True, 2, 0, id="one-cpu"),
    pytest.param(2, 2, False, 2, 0, id="no-kernels"),
]


class TestEncodeRule:
    @pytest.mark.parametrize("workers, cpus, kernels, frames, dispatches", ENCODE_CASES)
    def test_fans_out_exactly_by_the_rule(
        self, workers, cpus, kernels, frames, dispatches, monkeypatch
    ):
        if dispatches and not LOADED:
            pytest.skip("kernel library unavailable")
        source = _noise(frames)
        serial = FrameEncoder(EncoderConfig(qp=24.0)).encode(source)
        parallel = None if workers is None else ParallelConfig(workers=workers)
        encoder = FrameEncoder(EncoderConfig(qp=24.0, parallel=parallel))
        got, made = _dispatched(monkeypatch, cpus, kernels, lambda: encoder.encode(source))
        assert made == dispatches
        assert got.data == serial.data and got.mse == serial.mse


def _stream(kind):
    if kind == "inter":  # four 128 x 128 groups of one, 69 KB
        return ReferenceEncoder(EncoderConfig(qp=12.0, use_inter=True)).encode(
            _noise(4, (128, 128))
        ).data
    frames = {
        "four groups": _noise(4),  # 174 KB
        "two groups": _noise(2),  # under the slice bound
        "one group": _noise(4, (128, 128)),  # four 128 x 128 slices, 45 KB
        "flat": [np.full((256, 256), 90, np.uint8)] * 4,  # 141 bytes
    }[kind]
    return FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data


def _damaged(data):
    damaged = bytearray(data)
    damaged[len(damaged) // 2] ^= 0x40
    return bytes(damaged)


#: (stream, conceal, damage, workers, usable CPUs, kernels, dispatches)
DECODE_CASES = [
    pytest.param("four groups", False, False, 2, 2, True, 1, id="four-groups"),
    pytest.param("four groups", False, False, 4, 4, True, 1, id="four-workers"),
    pytest.param("four groups", False, False, 0, 2, True, 1, id="workers-0"),
    pytest.param("four groups", False, False, 1, 2, True, 0, id="one-worker"),
    pytest.param("four groups", False, False, None, 2, True, 0, id="no-config"),
    pytest.param("four groups", False, False, 2, 1, True, 0, id="one-cpu"),
    pytest.param("four groups", False, False, 2, 2, False, 0, id="no-kernels"),
    pytest.param("one group", False, False, 2, 2, True, 0, id="one-group"),
    # The decoder's own conditions, each alone.
    pytest.param("two groups", False, False, 2, 2, True, 0, id="under-4-slices"),
    pytest.param("flat", False, False, 2, 2, True, 0, id="under-32-KiB"),
    pytest.param("inter", False, False, 2, 2, True, 0, id="inter"),
    pytest.param("four groups", True, False, 2, 2, True, 0, id="conceal"),
    pytest.param("four groups", True, True, 2, 2, True, 0, id="damaged"),
]


class TestDecodeRule:
    def test_bounds_pinned(self):
        # The decoder's two bounds were measured (docs/PERFORMANCE.md,
        # "The slice fan-out"); changing either needs a fresh measurement.
        assert decoder_mod._PARALLEL_MIN_SLICES == 4
        assert decoder_mod._PARALLEL_MIN_BYTES == 32768
        assert len(_stream("flat")) < decoder_mod._PARALLEL_MIN_BYTES
        assert len(_stream("one group")) >= decoder_mod._PARALLEL_MIN_BYTES

    @pytest.mark.parametrize(
        "kind, conceal, damage, workers, cpus, kernels, dispatches", DECODE_CASES
    )
    def test_fans_out_exactly_by_the_rule(
        self, kind, conceal, damage, workers, cpus, kernels, dispatches, monkeypatch
    ):
        if dispatches and not LOADED:
            pytest.skip("kernel library unavailable")
        data = _stream(kind)
        if damage:
            data = _damaged(data)
        serial = FrameDecoder(data, conceal=conceal)
        want = serial.decode()
        parallel = None if workers is None else ParallelConfig(workers=workers)
        decoder = FrameDecoder(data, conceal=conceal, parallel=parallel)
        got, made = _dispatched(monkeypatch, cpus, kernels, decoder.decode)
        assert made == dispatches
        assert decoder.report.concealed == serial.report.concealed
        assert bool(decoder.report.concealed) == damage
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no affinity masks on this platform"
)
def test_one_cpu_of_affinity_keeps_everything_serial():
    # A child pinned to one CPU through the real affinity call: a
    # parallel encode and decode dispatch nothing, and the keep-awake
    # helper never starts (the spin would take the only core).
    script = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.parallel import ParallelConfig, awake_stats, keep_awake, pool_stats
rng = np.random.default_rng(0)
frames = [rng.integers(0, 256, (256, 256)).astype(np.uint8) for _ in range(4)]
par = ParallelConfig(workers=2)
data = FrameEncoder(EncoderConfig(qp=24.0, parallel=par)).encode(frames).data
assert all((a == b).all() for a, b in zip(decode_frames(data, parallel=par), decode_frames(data)))
keep_awake()
assert pool_stats()["dispatches"] == 0, pool_stats()
assert awake_stats()["running"] is False, awake_stats()
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
