"""Equivalence and validity of the RD mode-search implementations.

Two search engines share one bitstream format:

- the exact search -- :class:`repro.codec.reference.ReferenceEncoder`,
  the scalar per-mode loop and primitive-call writer.  Its batched
  twin (``rd_search="vectorized"``) used to run inside
  ``FrameEncoder`` and was held byte-identical to it; that twin is
  gone, and its streams, recorded as sha256 before it went, now pin the
  reference instead (any decision difference changes the mode syntax
  elements and therefore the bytes).
- the two-pass search -- ``FrameEncoder``, the only production search.
  Its decisions may differ slightly (pass 1 costs against source
  references), so it is held to decodability and a quality envelope,
  not identity.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.codec import reference
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.tensor.precision import grid_for

pytestmark = pytest.mark.pure_python

PROFILES = {"h264": H264_PROFILE, "h265": H265_PROFILE, "av1": AV1_PROFILE}

#: sha256 of the streams ``FrameEncoder(rd_search="vectorized")`` wrote
#: for these inputs, the bytes the reference wrote too.
VECTORIZED_STREAMS = {
    "h264 qp18": "a553f494f629d7d427ba6f81f1aa46e35423c098b283615e5580a39dee8bf2f7",
    "h264 qp27": "827fa942c4f3dc45af1072d5f318c24c70d93a3b2e827ba4f24a7445ba5677c6",
    "h264 qp36": "e0b97a0e233fd19775605af3471f75a4ae25c0f421e7ed984e32bad45c69e3ae",
    "h265 qp18": "805a71c23201f3d2eb5fd866518f5649708fb7772321add9b533bae173b1a269",
    "h265 qp27": "116f48d3121d1bf4d87080cd8a1ca0ce53658c1469f4195107d1ea1d1acd2a5f",
    "h265 qp36": "441a08f23ee5b1f8958c1b1885f37296e4069a69d8f2983a9c523dfa5f28e40e",
    "av1 qp18": "d7b9ccf8fe9728f3041c3377348a2945e8d38d118ba095a6f48afb0c4398eeb8",
    "av1 qp27": "8775e2c30d22f40de96968f02e2d881907e22f719617a43d1ba802d44214fa44",
    "av1 qp36": "b78adfadfa32fcfc611706ab4763b6e497d7a8acbb46bcec94046f8829ef6fcf",
    "inter": "5ab3bba7887d30dbc8e00e1c157ff0aede821fd193229b39e4ed4cbb7b2aab30",
    "qp25.7": "e08a48d9218573b0446b8e5f65fb1107de181d37833744b425ffee945bf99b63",
    "seed1": "6c41fb5a144396a59ad5df6fd7942f97dfddd69fab9b54f692a69a6c2c8c890a",
    "seed2": "71414d4869101c681cac74601b31336c4105c4beabdcca4692441d699da8093d",
    "seed3": "322ccd76c27387ba12fca37f122222ac11fe35ca1a15b5fef1b49dc9e4f6cdde",
}


def _frames(n=3, h=64, w=64, seed=7):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = 120 + 60 * np.sin(xx / 9.0) + 40 * np.cos(yy / 13.0)
    return [
        np.clip(base + rng.normal(0, 18, (h, w)), 0, 255).astype(np.uint8)
        for _ in range(n)
    ]


def _low_rank_frames():
    # A seeded low-rank field plus noise, 0.0625 MB of float32 (one
    # 128x128 tile): realistic mode decisions, neither pure noise nor
    # flat.
    rng = np.random.default_rng(20260806)
    u = rng.standard_normal((128, 8))
    v = rng.standard_normal((8, 128))
    tensor = (u @ v + 0.25 * rng.standard_normal((128, 128))).astype(np.float32)
    values = tensor.astype(np.float64)
    return [grid_for(values).to_codes(values)]


def _encode(frames, **kw):
    return FrameEncoder(EncoderConfig(**kw)).encode(frames)


def _reference(frames, **kw):
    return reference.encode_frames(frames, EncoderConfig(**kw))


def _sha(result):
    return hashlib.sha256(result.data).hexdigest()


class TestVectorizedMatchesLegacy:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("qp", [18.0, 27.0, 36.0])
    def test_byte_identical_across_profiles_and_qps(self, profile, qp):
        slow = _reference(_frames(), profile=PROFILES[profile], qp=qp)
        assert _sha(slow) == VECTORIZED_STREAMS[f"{profile} qp{qp:g}"]

    def test_byte_identical_with_inter_prediction(self):
        slow = _reference(_frames(n=4), qp=27.0, use_inter=True)
        assert _sha(slow) == VECTORIZED_STREAMS["inter"]

    def test_byte_identical_with_fractional_qp(self):
        slow = _reference(_frames(), qp=25.7)
        assert _sha(slow) == VECTORIZED_STREAMS["qp25.7"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byte_identical_over_seeds(self, seed):
        slow = _reference(_frames(n=2, seed=seed), qp=27.0)
        assert _sha(slow) == VECTORIZED_STREAMS[f"seed{seed}"]

    def test_fast_entropy_is_bit_exact(self):
        # The fused coefficient writer is an optimisation of the
        # primitive-call writer, never a format change: the production
        # twin with only the writer hook swapped.
        class PrimitiveWriter(FrameEncoder):
            _write_coeffs = reference.ReferenceEncoder._write_coeffs

        frames = _frames()
        config = EncoderConfig(qp=27.0, encode="python")
        fast = FrameEncoder(config).encode(frames)
        slow = PrimitiveWriter(config).encode(frames)
        assert fast.data == slow.data

    def test_reference_ignores_search_backend_and_fanout(self):
        # No option reaches the reference: whatever the config says, it
        # is the exact search, serial, pure Python.
        from repro.parallel import ParallelConfig

        frames = _frames(n=4)
        plain = _reference(frames, qp=27.0)
        dressed = _reference(
            frames,
            qp=27.0,
            encode="native",
            parallel=ParallelConfig(workers=2),
        )
        assert dressed.data == plain.data


class TestSatdPrune:  # the prune is gone; its config check kept its id
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(encode="warp")
        # The search options that used to exist are gone, not aliased.
        for gone in ("rd_search", "satd_prune", "search_range"):
            with pytest.raises(TypeError):
                EncoderConfig(**{gone: None})


class TestTurbo:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_stream_decodes_on_every_profile(self, profile):
        frames = _frames()
        result = _encode(frames, profile=PROFILES[profile], qp=27.0)
        decoded = decode_frames(result.data)
        assert len(decoded) == len(frames)
        for got, src in zip(decoded, frames):
            assert got.shape == src.shape

    @pytest.mark.parametrize(
        "make_frames, qp",
        [
            pytest.param(_frames, 18.0, id="18.0"),
            pytest.param(_frames, 27.0, id="27.0"),
            pytest.param(_frames, 36.0, id="36.0"),
            pytest.param(_low_rank_frames, 26.0, id="low_rank-26.0"),
        ],
    )
    def test_quality_tracks_exact_search(self, make_frames, qp):
        # Two-pass decisions come from source-reference costing; the
        # final streams must stay within a few percent of the exact
        # search on both axes.
        frames = make_frames()
        exact = _reference(frames, qp=qp)
        turbo = _encode(frames, qp=qp)
        assert len(turbo.data) <= len(exact.data) * 1.04
        assert turbo.mse <= exact.mse * 1.01

    def test_reported_mse_matches_decoder(self):
        frames = _frames()
        result = _encode(frames, qp=27.0)
        decoded = decode_frames(result.data)
        mse = float(
            np.mean(
                [
                    np.mean((d.astype(np.float64) - s.astype(np.float64)) ** 2)
                    for d, s in zip(decoded, frames)
                ]
            )
        )
        # Decoder output is uint8-rounded, so allow that quantisation.
        assert mse == pytest.approx(result.mse, abs=0.5)

    def test_telemetry_does_not_change_bytes(self):
        # The instrumented turbo path must take the same decisions as
        # the bare one -- observability is never allowed to perturb the
        # bitstream.
        frames = _frames()
        plain = _encode(frames, qp=27.0)
        with telemetry.session():
            instrumented = _encode(frames, qp=27.0)
        assert instrumented.data == plain.data

    def test_no_partition_and_fractional_qp(self):
        frames = _frames(n=2)
        flat = _encode(frames, qp=26.5, use_partition=False)
        assert len(decode_frames(flat.data)) == len(frames)

    def test_inter_frames_fall_back_to_exact_planner(self):
        # The two-pass search is intra-only: production refuses inter
        # frames, and the exact planner (the reference) codes them.
        frames = _frames(n=4)
        with pytest.raises(ValueError, match="repro.codec.reference"):
            _encode(frames, qp=27.0, use_inter=True)
        result = _reference(frames, qp=27.0, use_inter=True)
        assert len(decode_frames(result.data)) == len(frames)
