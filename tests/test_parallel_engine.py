"""Bit-exactness and semantics of the slice-parallel engine.

The contract under test: for every worker count, parallel encode and
decode produce output *byte-identical* to the serial path, at the
codec, tensor, checkpoint, and distributed layers -- and with the C
kernels off (the ``LLM265_PURE_PYTHON=1`` leg runs this file) a
parallel config stays serial and still byte-identical.  Plus the pool
semantics those guarantees rest on: submission ordering,
earliest-exception propagation, one thread pool per worker count, and
the closed-form QP dither fast-forward that lets a slice worker
reproduce frame ``i``'s quantizer sequence without replaying frames
``0 .. i-1``.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.codec import decoder as decoder_mod
from repro.codec import encoder as encoder_mod
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, FrameEncoder, QpDither
from repro.codec.entropy import native
from repro.codec.profiles import H265_PROFILE
from repro.codec.reference import ReferenceEncoder
from repro.distributed.comm import CodecCompressor
from repro.parallel import ParallelConfig, parallel_map, pool_stats
from repro.parallel import pool as pool_mod
from repro.tensor.checkpoint import load_checkpoint, save_checkpoint
from repro.tensor.codec import TensorCodec

pytestmark = pytest.mark.pure_python


def _frames(n=4, h=64, w=64, seed=11):
    rng = np.random.default_rng(seed)
    base = np.linspace(40, 200, w)[None, :] + np.linspace(-30, 30, h)[:, None]
    return [
        np.clip(base + rng.normal(0, 25, (h, w)), 0, 255).astype(np.uint8)
        for _ in range(n)
    ]


def _tensor(seed=5, edge=64):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((edge, 4))
    v = rng.standard_normal((4, edge))
    return (u @ v + 0.2 * rng.standard_normal((edge, edge))).astype(np.float32)


def _negate(x):
    return -x


# -- pool semantics ----------------------------------------------------


class TestParallelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-1)
        # The worker count is the only knob.
        assert [f.name for f in dataclasses.fields(ParallelConfig)] == ["workers"]

    def test_is_serial(self):
        assert ParallelConfig(workers=1).is_serial()
        assert not ParallelConfig(workers=2).is_serial()

    def test_workers_zero_resolves_to_cpu_count(self):
        assert ParallelConfig(workers=0).resolved_workers() >= 1


class TestParallelMap:
    def test_preserves_submission_order(self):
        cfg = ParallelConfig(workers=4)
        items = list(range(40))
        assert parallel_map(lambda x: x * x, items, cfg) == [x * x for x in items]

    def test_none_config_is_serial(self):
        assert parallel_map(lambda x: -x, [1, 2], None) == [-1, -2]

    def test_exception_propagates(self):
        cfg = ParallelConfig(workers=2)

        def boom(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        with pytest.raises(ValueError, match="item 3"):
            parallel_map(boom, [1, 2, 3, 4], cfg)

    @pytest.mark.parametrize("late", [2, 5])
    def test_earliest_exception_wins(self, late):
        # Item 1 fails only after a later item has already failed on the
        # other thread; draining in order still surfaces item 1's error.
        cfg = ParallelConfig(workers=2)
        late_failed = threading.Event()

        def fail(x):
            if x == 1:
                late_failed.wait(5.0)
                raise ValueError("item 1")
            if x == late:
                try:
                    raise RuntimeError(f"item {late}")
                finally:
                    late_failed.set()
            return x

        with pytest.raises(ValueError, match="item 1"):
            parallel_map(fail, range(6), cfg)
        assert late_failed.is_set()

    def test_one_pool_per_worker_count(self):
        # Regression: pools were keyed by min(workers, len(items)), so
        # every batch length made (and kept) its own pool.
        cfg = ParallelConfig(workers=8)
        before = set(pool_stats()["live_pools"])
        for size in (2, 3, 5, 7, 8):
            assert parallel_map(_negate, range(size), cfg) == [-x for x in range(size)]
        assert set(pool_stats()["live_pools"]) - before <= {8}
        assert 8 in pool_stats()["live_pools"]


class TestQpDither:
    @pytest.mark.parametrize("frac", [0, 1, 77, 128, 255])
    @pytest.mark.parametrize("steps", [0, 1, 16, 100])
    def test_advanced_matches_stepping(self, frac, steps):
        stepped = QpDither(26, frac)
        for _ in range(steps):
            stepped.next()
        jumped = QpDither.advanced(26, frac, steps)
        # The next 64 QPs must agree exactly.
        assert [stepped.next() for _ in range(64)] == [
            jumped.next() for _ in range(64)
        ]


# -- codec-layer byte identity -----------------------------------------


WORKER_COUNTS = [1, 2, 4]


class TestEncodeDecodeIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_encode_is_byte_identical(self, workers):
        frames = _frames()
        serial = FrameEncoder(EncoderConfig(qp=27.0)).encode(frames)
        par = FrameEncoder(
            EncoderConfig(
                qp=27.0,
                parallel=ParallelConfig(workers=workers),
            )
        ).encode(frames)
        assert par.data == serial.data
        assert par.mse == pytest.approx(serial.mse)

    def test_fractional_qp_dither_survives_fanout(self):
        # Fractional QPs make the per-CTU quantizer depend on global CTU
        # index -- exactly what QpDither.advanced must reproduce per slice.
        frames = _frames(n=5)
        serial = FrameEncoder(EncoderConfig(qp=26.43)).encode(frames)
        par = FrameEncoder(
            EncoderConfig(
                qp=26.43, parallel=ParallelConfig(workers=4)
            )
        ).encode(frames)
        assert par.data == serial.data

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_decode_matches_serial(self, workers):
        frames = _frames()
        data = FrameEncoder(EncoderConfig(qp=27.0)).encode(frames).data
        serial = decode_frames(data)
        par = decode_frames(
            data, parallel=ParallelConfig(workers=workers)
        )
        assert len(par) == len(serial)
        for a, b in zip(serial, par):
            np.testing.assert_array_equal(a, b)

    def test_inter_streams_fall_back_and_still_match(self):
        # Inter prediction chains frames: only the (serial) reference
        # encodes them, whatever fan-out its config names, and the
        # decoder must detect the dependency, run serially, and agree
        # with the plain path.
        frames = _frames()
        pool = ParallelConfig(workers=4)
        config = EncoderConfig(qp=27.0, use_inter=True)
        serial = ReferenceEncoder(config).encode(frames)
        par = ReferenceEncoder(replace(config, parallel=pool)).encode(frames)
        assert par.data == serial.data
        for a, b in zip(decode_frames(serial.data), decode_frames(serial.data, parallel=pool)):
            np.testing.assert_array_equal(a, b)

    def test_single_frame_degenerates_to_serial(self):
        frames = _frames(n=1)
        pool = ParallelConfig(workers=4)
        serial = FrameEncoder(EncoderConfig(qp=27.0)).encode(frames)
        par = FrameEncoder(EncoderConfig(qp=27.0, parallel=pool)).encode(frames)
        assert par.data == serial.data
        np.testing.assert_array_equal(
            decode_frames(serial.data)[0], decode_frames(serial.data, parallel=pool)[0]
        )


# -- tensor / checkpoint / distributed plumbing ------------------------


class TestTensorLayerIdentity:
    def test_tensor_codec_parallel_identity(self):
        tensor = _tensor()
        pool = ParallelConfig(workers=4)
        serial_codec = TensorCodec(tile=32)
        par_codec = TensorCodec(tile=32, parallel=pool)
        a = serial_codec.encode(tensor, qp=27.0)
        b = par_codec.encode(tensor, qp=27.0)
        assert a.data == b.data
        np.testing.assert_array_equal(serial_codec.decode(a), par_codec.decode(b))

    def test_checkpoint_parallel_identity(self, tmp_path):
        tensors = {"w": _tensor(seed=1), "b": _tensor(seed=2, edge=32)}
        plain = tmp_path / "plain.llmckpt"
        fanned = tmp_path / "fanned.llmckpt"
        save_checkpoint(tensors, str(plain), bits_per_value=3.0)
        save_checkpoint(
            tensors,
            str(fanned),
            bits_per_value=3.0,
            parallel=ParallelConfig(workers=4),
        )
        assert plain.read_bytes() == fanned.read_bytes()
        a = load_checkpoint(str(plain))
        b = load_checkpoint(
            str(fanned), parallel=ParallelConfig(workers=2)
        )
        for key in tensors:
            np.testing.assert_array_equal(a[key], b[key])

    def test_codec_compressor_parallel_identity(self):
        tensor = _tensor().astype(np.float64)
        serial = CodecCompressor(bits_per_value=3.5)
        par = CodecCompressor(
            bits_per_value=3.5,
            parallel=ParallelConfig(workers=4),
        )
        a, bits_a = serial.compress(tensor, step=0)
        b, bits_b = par.compress(tensor, step=0)
        assert bits_a == pytest.approx(bits_b)
        np.testing.assert_array_equal(a, b)

    def test_fan_out_runs_on_threads_only_with_kernels(self, monkeypatch):
        # Eight 128 x 128 tiles are two pass-1 groups, above both
        # dispatch thresholds: with the kernels loaded, encode and
        # decode each dispatch once, to a thread pool; without them
        # (the pure-Python leg) both stay serial.  Bytes and samples
        # match the serial codec either way.
        monkeypatch.setattr(encoder_mod, "_effective_cpus", lambda: 4)
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 4)
        tensor = np.random.default_rng(17).standard_normal((256, 512)).astype(np.float32)
        serial_codec = TensorCodec(tile=128)
        par_codec = TensorCodec(tile=128, parallel=ParallelConfig(workers=2))
        before = pool_stats()["dispatches"]
        a = serial_codec.encode(tensor, qp=18.0)
        b = par_codec.encode(tensor, qp=18.0)
        assert a.data == b.data
        np.testing.assert_array_equal(serial_codec.decode(a), par_codec.decode(b))
        kernels = native.available()
        assert pool_stats()["dispatches"] - before == (2 if kernels else 0)
        assert all(
            isinstance(pool, ThreadPoolExecutor) for pool in pool_mod._pools.values()
        )
