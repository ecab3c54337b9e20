"""Differential fuzz: native C encode kernels vs. the pure-Python coder.

The mirror of ``test_decode_fuzz.py`` for the encode side.  The
``encode="native"`` backend (whole-slice encode kernel, pass 1's pick
kernel, reference-gather kernel) is only a valid substitute if the
streams it emits are *byte-identical* to the pure-Python paths across
the whole configuration space -- every profile and QP -- and the
instrumented stats path reports the same exact ``tell_bits`` split.
This file drives both backends over seeded random tensors and asserts
exactly that.  The reference encoder (``repro.codec.reference``, the
``reference`` id; the only one that codes inter frames) is held to the
same rule for the kernels it touches, the ordered DCT and the
reference gather: loaded or not, the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.codec import reference
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.entropy import native
from repro.codec.profiles import PROFILES_BY_NAME

pytestmark = [
    pytest.mark.fuzz,
    pytest.mark.pure_python,
    pytest.mark.skipif(
        not native.available(),
        reason="kernel library unavailable (no compiler or pure-python)",
    ),
]

_QPS = (18.0, 30.0, 44.0)


def _frames(seed: int, n: int = 3, edge: int = 64):
    rng = np.random.default_rng(seed)
    base = (
        np.linspace(30, 220, edge)[None, :]
        + np.linspace(-40, 40, edge)[:, None]
    )
    return [
        np.clip(base + rng.normal(0, 20 + 10 * i, (edge, edge)), 0, 255).astype(
            np.uint8
        )
        for i in range(n)
    ]


def _pair(frames, **kw):
    """(native result, pure result) for one configuration."""
    native_res = FrameEncoder(EncoderConfig(encode="native", **kw)).encode(frames)
    pure_res = FrameEncoder(EncoderConfig(encode="python", **kw)).encode(frames)
    return native_res, pure_res


def _reference_pair(frames, **kw):
    """The reference encoder with the kernels loaded, then with none."""
    config = EncoderConfig(**kw)
    loaded = reference.encode_frames(frames, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_resolve", lambda: None)
        bare = reference.encode_frames(frames, config)
    return loaded, bare


class TestEncodeFuzz:
    @pytest.mark.parametrize("profile", sorted(PROFILES_BY_NAME))
    @pytest.mark.parametrize("search", ["reference", "production"])
    def test_streams_identical_across_profiles(self, profile, search):
        # "production": production's two backends; "reference": the
        # reference encoder with and without the kernels.
        frames = _frames(7)
        pair = _reference_pair if search == "reference" else _pair
        for qp in _QPS:
            a, b = pair(frames, profile=PROFILES_BY_NAME[profile], qp=qp)
            assert a.data == b.data, f"{profile} {search} qp={qp}"
            assert a.mse == b.mse

    @pytest.mark.parametrize("use_inter", [False, True])
    def test_streams_identical_inter_intra(self, use_inter):
        # Inter streams come from the reference alone.
        frames = _frames(21, n=4)
        pair = _reference_pair if use_inter else _pair
        for qp in _QPS:
            a, b = pair(frames, qp=qp, use_inter=use_inter)
            assert a.data == b.data, f"inter={use_inter} qp={qp}"

    def test_random_tensor_sweep(self):
        # Many small random tensors: different textures exercise
        # different mode decisions, block sizes, and level magnitudes.
        rng = np.random.default_rng(0xEC0DE)
        for trial in range(12):
            edge = int(rng.choice([32, 48, 64]))
            scale = float(rng.uniform(2, 80))
            frames = [
                np.clip(
                    rng.normal(128, scale, (edge, edge)), 0, 255
                ).astype(np.uint8)
                for _ in range(2)
            ]
            qp = float(rng.uniform(12, 46))
            a, b = _pair(frames, qp=qp)
            assert a.data == b.data, f"trial {trial} edge={edge} qp={qp:.1f}"

    def test_streams_decode_identically(self):
        frames = _frames(33)
        a, b = _pair(frames, qp=26.0)
        assert a.data == b.data
        for x, y in zip(decode_frames(a.data), decode_frames(b.data)):
            np.testing.assert_array_equal(x, y)

    def test_stats_tell_bits_identical(self):
        # The instrumented path measures the exact bit split with
        # tell_bits deltas; both backends must report the same ledger
        # (seconds excluded -- wall time is the one legitimately
        # backend-dependent field).
        frames = _frames(55)
        ledgers = []
        for encode in ("native", "python"):
            with telemetry.session():
                res = FrameEncoder(
                    EncoderConfig(encode=encode, qp=24.0)
                ).encode(frames)
            ledgers.append(res)
        a, b = ledgers
        assert a.data == b.data
        assert a.stats is not None and b.stats is not None
        assert a.stats["bits"] == b.stats["bits"]
        assert a.stats["counts"] == b.stats["counts"]
        assert a.stats["qp"] == b.stats["qp"]

    def test_pure_python_env_forces_fallback(self, monkeypatch):
        # LLM265_PURE_PYTHON must pin every kernel off for new resolves;
        # streams still come out identical because the fallback is the
        # reference.
        frames = _frames(70, n=2)
        ref = FrameEncoder(EncoderConfig(qp=28.0)).encode(frames).data
        monkeypatch.setenv("LLM265_PURE_PYTHON", "1")
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)
        assert native.kernel_status() == {"library": "pure-python"}
        assert FrameEncoder(EncoderConfig(qp=28.0)).encode(frames).data == ref
