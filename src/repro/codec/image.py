"""Still-image coding through the intra pipeline (Section 7).

The three-in-one codec supports images via the AVC Image Format trick:
"disable all inter-frame compression features", which aligns the image
path exactly with the tensor path.  This module is that path as a
convenience API -- one grayscale image in, one bitstream out -- and it
is what the three-in-one model's ``InputKind.IMAGE`` maps to.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.profiles import H264_PROFILE, CodecProfile
from repro.codec.ratecontrol import search_qp_for_bitrate, search_qp_for_mse


def encode_image(
    image: np.ndarray,
    qp: Optional[float] = None,
    bits_per_pixel: Optional[float] = None,
    max_mse: Optional[float] = None,
    profile: CodecProfile = H264_PROFILE,
) -> bytes:
    """Encode an 8-bit grayscale image (intra-only, like AVC-I).

    Exactly one of ``qp`` / ``bits_per_pixel`` / ``max_mse`` selects the
    rate-control mode (default: qp=28).
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("encode_image expects a 2-D grayscale image")
    if image.dtype != np.uint8:
        raise ValueError("encode_image expects uint8 samples")
    chosen = [t is not None for t in (qp, bits_per_pixel, max_mse)]
    if sum(chosen) > 1:
        raise ValueError("pass only one of qp / bits_per_pixel / max_mse")

    config = EncoderConfig(profile=profile)
    if bits_per_pixel is not None:
        _, result = search_qp_for_bitrate([image], bits_per_pixel, config)
        return result.data
    if max_mse is not None:
        _, result = search_qp_for_mse([image], max_mse, config)
        return result.data
    from dataclasses import replace

    config = replace(config, qp=qp if qp is not None else 28.0)
    return FrameEncoder(config).encode([image]).data


def decode_image(data: bytes) -> np.ndarray:
    """Decode a bitstream produced by :func:`encode_image`."""
    frames = decode_frames(data)
    if len(frames) != 1:
        raise ValueError("image stream must contain exactly one frame")
    return frames[0]


def image_psnr(original: np.ndarray, decoded: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (the image-quality yardstick)."""
    mse = float(
        np.mean((original.astype(np.float64) - decoded.astype(np.float64)) ** 2)
    )
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)
