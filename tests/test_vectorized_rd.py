"""Equivalence and validity of the RD mode-search implementations.

Three search engines share one bitstream format:

- ``repro.codec.reference`` -- the original scalar per-mode loop and
  primitive-call writer (``ReferenceEncoder``).
- ``vectorized`` -- the exact search, batched.  It must pick the *same
  mode for every block* as the reference search, which we assert via
  byte-identity of the streams (any decision difference changes the
  mode syntax elements and therefore the bytes).
- ``turbo``      -- two-pass whole-frame search, the default.  Its
  decisions may differ slightly (pass 1 costs against source
  references), so it is held to decodability and a quality envelope,
  not identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.codec import reference
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE

pytestmark = pytest.mark.pure_python

PROFILES = {"h264": H264_PROFILE, "h265": H265_PROFILE, "av1": AV1_PROFILE}


def _frames(n=3, h=64, w=64, seed=7):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = 120 + 60 * np.sin(xx / 9.0) + 40 * np.cos(yy / 13.0)
    return [
        np.clip(base + rng.normal(0, 18, (h, w)), 0, 255).astype(np.uint8)
        for _ in range(n)
    ]


def _encode(frames, rd_search="vectorized", **kw):
    return FrameEncoder(EncoderConfig(rd_search=rd_search, **kw)).encode(frames)


def _reference(frames, **kw):
    return reference.encode_frames(frames, EncoderConfig(**kw))


class TestVectorizedMatchesLegacy:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("qp", [18.0, 27.0, 36.0])
    def test_byte_identical_across_profiles_and_qps(self, profile, qp):
        frames = _frames()
        fast = _encode(frames, profile=PROFILES[profile], qp=qp)
        slow = _reference(frames, profile=PROFILES[profile], qp=qp)
        assert fast.data == slow.data
        assert fast.mse == pytest.approx(slow.mse)

    def test_byte_identical_with_inter_prediction(self):
        frames = _frames(n=4)
        fast = _encode(frames, qp=27.0, use_inter=True)
        slow = _reference(frames, qp=27.0, use_inter=True)
        assert fast.data == slow.data

    def test_byte_identical_with_fractional_qp(self):
        frames = _frames()
        fast = _encode(frames, qp=25.7)
        slow = _reference(frames, qp=25.7)
        assert fast.data == slow.data

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byte_identical_over_seeds(self, seed):
        frames = _frames(n=2, seed=seed)
        assert (
            _encode(frames, qp=27.0).data
            == _reference(frames, qp=27.0).data
        )

    def test_fast_entropy_is_bit_exact(self):
        # The fused coefficient writer is an optimisation of the
        # primitive-call writer, never a format change: the production
        # planner with only the writer hook swapped.
        class PrimitiveWriter(FrameEncoder):
            _write_coeffs = reference.ReferenceEncoder._write_coeffs

        frames = _frames()
        config = EncoderConfig(qp=27.0, rd_search="vectorized")
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
            rd_search="turbo",
            encode="native",
            parallel=ParallelConfig(workers=2, executor="thread"),
        )
        assert dressed.data == plain.data


class TestSatdPrune:  # the prune is gone; its config check kept its id
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(rd_search="warp")
        # The search values that used to exist are gone, not aliased.
        with pytest.raises(ValueError):
            EncoderConfig(rd_search="legacy")


class TestTurbo:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_stream_decodes_on_every_profile(self, profile):
        frames = _frames()
        result = _encode(
            frames, profile=PROFILES[profile], qp=27.0, rd_search="turbo"
        )
        decoded = decode_frames(result.data)
        assert len(decoded) == len(frames)
        for got, src in zip(decoded, frames):
            assert got.shape == src.shape

    @pytest.mark.parametrize("qp", [18.0, 27.0, 36.0])
    def test_quality_tracks_exact_search(self, qp):
        # Two-pass decisions come from source-reference costing; the
        # final streams must stay within a few percent of the exact
        # search on both axes.
        frames = _frames()
        exact = _encode(frames, qp=qp)
        turbo = _encode(frames, qp=qp, rd_search="turbo")
        assert len(turbo.data) <= len(exact.data) * 1.05
        assert turbo.mse <= exact.mse * 1.05 + 0.5

    def test_reported_mse_matches_decoder(self):
        frames = _frames()
        result = _encode(frames, qp=27.0, rd_search="turbo")
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
        plain = _encode(frames, qp=27.0, rd_search="turbo")
        with telemetry.session():
            instrumented = _encode(frames, qp=27.0, rd_search="turbo")
        assert instrumented.data == plain.data

    def test_no_partition_and_fractional_qp(self):
        frames = _frames(n=2)
        flat = _encode(frames, qp=26.5, rd_search="turbo", use_partition=False)
        assert len(decode_frames(flat.data)) == len(frames)

    def test_inter_frames_fall_back_to_exact_planner(self):
        # Turbo's whole-frame pass is intra-only; inter frames route
        # through the per-leaf planner and must still round-trip.
        frames = _frames(n=4)
        result = _encode(frames, qp=27.0, rd_search="turbo", use_inter=True)
        assert len(decode_frames(result.data)) == len(frames)
