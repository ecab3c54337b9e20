"""QP-driven coefficient quantization (HEVC-style exponential step)."""

from __future__ import annotations

import math

import numpy as np

MIN_QP = 0
MAX_QP = 51


def check_qp(qp: float) -> float:
    """``qp`` itself if an encoder can code it, else ``ValueError``.

    A stream header stores the QP as an integer base and a 1/256
    fraction, and the per-CTU dither never goes above :data:`MAX_QP`, so
    a QP outside ``[MIN_QP, MAX_QP]`` -- or NaN, or an infinity -- would
    be coded as a different one without a word.
    """
    if not (math.isfinite(qp) and MIN_QP <= qp <= MAX_QP):
        raise ValueError(
            f"qp must be a finite number in [{MIN_QP}, {MAX_QP}], got {qp!r}"
        )
    return qp


def qstep(qp: float) -> float:
    """Quantization step size; doubles every 6 QP like H.264/H.265."""
    return float(2.0 ** ((qp - 4.0) / 6.0))


def quantize(coeffs: np.ndarray, qp: float, deadzone: float = 0.0) -> np.ndarray:
    """Quantize transform coefficients to integer levels.

    ``deadzone`` in [0, 0.5) widens the zero bin, trading a little
    distortion for fewer significant coefficients (the encoder uses a
    small deadzone like real video encoders do).
    """
    step = qstep(qp)
    scaled = coeffs / step
    if deadzone:
        signs = np.sign(scaled)
        mags = np.abs(scaled)
        levels = signs * np.floor(mags + (0.5 - deadzone))
    else:
        levels = np.round(scaled)
    return levels.astype(np.int64)


def dequantize(levels: np.ndarray, qp: float) -> np.ndarray:
    """Reconstruct coefficient values from integer levels."""
    return levels.astype(np.float64) * qstep(qp)


def rd_lambda(qp: float) -> float:
    """Lagrange multiplier for rate-distortion mode decision.

    The HEVC reference software uses lambda ~ 0.85 * 2^((QP-12)/3);
    the same shape works here because distortion is measured in the
    same 8-bit pixel domain.
    """
    return float(0.85 * 2.0 ** ((qp - 12.0) / 3.0))
