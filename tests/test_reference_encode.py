"""The reference encoder's stage ablations, pinned; production refuses them.

:class:`repro.codec.encoder.FrameEncoder` is the two-pass intra search
and nothing else.  Inter prediction, intra prediction off and the
transform off -- the Figure 2(b) / Figure 13 stages -- are encoded by
:class:`repro.codec.reference.ReferenceEncoder`'s exact search alone.
Its streams are pinned here by sha256, three profiles x those three
stages plus a fractional QP: the hashes are those of the streams the
exact search wrote while it still ran inside ``FrameEncoder``
(``rd_search="vectorized"``).  Every operation on the reference path is
order-defined (the ordered DCT, integer coding, no BLAS), so they hold
on any machine and with or without the C kernels.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.codec import encoder as encoder_mod
from repro.codec.decoder import FrameDecoder
from repro.codec.encoder import EncoderConfig, FrameEncoder, encode_frames
from repro.codec.profiles import PROFILES_BY_NAME
from repro.codec.reference import ReferenceEncoder

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

STAGES = {
    "inter": dict(use_inter=True),
    "no-intra": dict(use_intra=False),
    "no-transform": dict(use_transform=False),
}

PINNED = {
    "h264 inter": "3d0846b3fad3f79f797ebf87c7a8e5594e994da59525793f366698d04d9c74dc",
    "h264 no-intra": "e17858f02b0e6d02c09f30bf6ba605af80fb507f54421c8fe29264566ea14a0a",
    "h264 no-transform": "9ff06b3dd09c774f52a46cbb95e4f1a98a19055d02c2ee747a69684a6689591e",
    "h265 inter": "31c85319e935adc9aeacf5d8ffec24f475b7d7cd2730307a6978179df55d0a96",
    "h265 no-intra": "bd69effc6a30aefc8eeaf004ba55fc1fed17018edbbadf7ae95b4aa8fdecf723",
    "h265 no-transform": "f23de5bf048f952b9c14de7ff79a69342f0227fd8c877bae939142ff0393dfa5",
    "av1 inter": "6b188632ac0a66b8f6b9aa81e7da40034157b0c12a4f298ff904729fc249058c",
    "av1 no-intra": "e06c7e813eeccbb693c44fa373e77989f2959bf59164f3832db602339c46db99",
    "av1 no-transform": "13eca947c346a9b7a3f54504b412aa6b8a52b94f86c845bd34ca3979f21ccee6",
    "h265 inter qp25.37": "7ea54f1725f6e8f84b26ee802a654d9edda242f70ae21a38d7a0e63426c0760c",
}

#: What the exact search took over from production: none of these may
#: come back to ``FrameEncoder``.
MOVED = (
    "_plan_cu",
    "_plan_leaf",
    "_plan_leaf_intra",
    "_search_intra",
    "_save",
    "_restore",
    "_plan_leaf_inter",
    "_motion_search",
    "_motion_compensate",
    "_code_residual",
    "_commit_leaf",
)
DELETED = ("_plan_leaf_intra_turbo", "_turbo_costs", "_encode_frame_turbo")


def _frames(n=3, h=40, w=56, seed=5):
    """Gradient + noise, not a CTU multiple; later frames are the first
    shifted and re-noised, so inter leaves have motion to find."""
    rng = np.random.default_rng(seed)
    base = (
        np.linspace(30, 220, w)[None, :]
        + np.linspace(-40, 40, h)[:, None]
        + rng.normal(0, 20, (h, w))
    )
    return [
        np.clip(np.roll(base, (k, 2 * k), (0, 1)) + rng.normal(0, 4, (h, w)), 0, 255)
        .astype(np.uint8)
        for k in range(n)
    ]


def _assert_pinned(name, config):
    frames = _frames()
    encoder = ReferenceEncoder(config)
    result = encoder.encode(frames)
    assert hashlib.sha256(result.data).hexdigest() == PINNED[name]
    # The decoder reads it back to the encoder's own reconstruction, an
    # independent one: the exact search's plane, byte for byte.
    decoder = FrameDecoder(result.data)
    assert len(decoder.decode()) == len(frames)
    assert encoder._reference.tobytes() == decoder._reference.tobytes()


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize("profile", sorted(PROFILES_BY_NAME))
def test_ablation_stream_is_pinned(profile, stage):
    config = EncoderConfig(profile=PROFILES_BY_NAME[profile], qp=26.0, **STAGES[stage])
    _assert_pinned(f"{profile} {stage}", config)


def test_fractional_qp_stream_is_pinned():
    # The dither's bumps land on different CTUs of each frame.
    _assert_pinned("h265 inter qp25.37", EncoderConfig(qp=25.37, use_inter=True))


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_production_refuses_the_stage(stage):
    config = EncoderConfig(**STAGES[stage])
    with pytest.raises(ValueError, match="repro.codec.reference"):
        FrameEncoder(config)
    with pytest.raises(ValueError, match="repro.codec.reference"):
        encode_frames(_frames(n=1), config)
    # A fixed CU grid is not an ablation production refuses.
    FrameEncoder(EncoderConfig(use_partition=False))


def test_production_has_no_exact_search():
    for name in MOVED + DELETED:
        assert not hasattr(FrameEncoder, name), name
    for name in MOVED:
        assert hasattr(ReferenceEncoder, name), name
    assert not hasattr(encoder_mod, "RD_SEARCHES")
