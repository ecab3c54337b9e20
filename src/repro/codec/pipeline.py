"""Stage-by-stage codec pipeline ablation (reproduces Figure 2(b)).

The paper activates the H.265 encoding pipeline incrementally and
measures the bits/value needed to stay under an MSE budget:

1. 8-bit quantization only (raw)            -> 8.0 bits
2. + entropy coding                          -> ~7.6 bits
3. + DCT transform coding                    -> lower
4. + CTU quad-tree partitioning              -> lower
5. + intra-frame prediction (full pipeline)  -> ~2-3 bits
6. + inter-frame prediction                  -> *increases* for tensors

Stages 3-6 search QP for the distortion budget; stages 1-2 are
lossless in the 8-bit pixel domain.  Stage 5 is what production runs,
:class:`repro.codec.encoder.FrameEncoder`'s two-pass search; stages 3,
4 and 6 are ablations production refuses, so they are encoded by the
exact search of :class:`repro.codec.reference.ReferenceEncoder`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.codec.encoder import EncoderConfig, FrameEncoder
from repro.codec.entropy.bytecoder import byte_arith_encode
from repro.codec.profiles import H265_PROFILE, CodecProfile
from repro.codec.ratecontrol import solve_qp
from repro.codec.reference import ReferenceEncoder


class PipelineStage(enum.Enum):
    """Cumulative pipeline configurations, in paper order."""

    QUANTIZE_ONLY = 1
    ENTROPY = 2
    TRANSFORM = 3
    PARTITION = 4
    INTRA = 5
    INTER = 6


@dataclass
class StageResult:
    """Outcome of one ablation point."""

    stage: PipelineStage
    bits_per_value: float
    pixel_mse: float
    qp: Optional[float] = None


def stage_config(stage: PipelineStage, profile: CodecProfile) -> EncoderConfig:
    """Encoder configuration for a lossy ablation stage (3-6)."""
    if stage == PipelineStage.TRANSFORM:
        return EncoderConfig(
            profile=profile,
            use_intra=False,
            use_partition=False,
            use_transform=True,
            fixed_cu_size=8,
        )
    if stage == PipelineStage.PARTITION:
        return EncoderConfig(
            profile=profile, use_intra=False, use_partition=True, use_transform=True
        )
    if stage == PipelineStage.INTRA:
        return EncoderConfig(profile=profile)
    if stage == PipelineStage.INTER:
        return EncoderConfig(profile=profile, use_inter=True)
    raise ValueError(f"stage {stage} has no encoder configuration")


def run_pipeline_ablation(
    frames: Sequence[np.ndarray],
    pixel_mse_target: float,
    profile: CodecProfile = H265_PROFILE,
    stages: Optional[Sequence[PipelineStage]] = None,
) -> List[StageResult]:
    """Measure bits/value under a distortion budget per pipeline stage."""
    frames = [np.asarray(f, dtype=np.uint8) for f in frames]
    num_values = sum(f.size for f in frames)
    stages = list(stages) if stages is not None else list(PipelineStage)

    results: List[StageResult] = []
    for stage in stages:
        if stage == PipelineStage.QUANTIZE_ONLY:
            results.append(StageResult(stage, 8.0, 0.0))
        elif stage == PipelineStage.ENTROPY:
            blob = byte_arith_encode(b"".join(f.tobytes() for f in frames))
            results.append(StageResult(stage, 8.0 * len(blob) / num_values, 0.0))
        else:
            if stage == PipelineStage.INTER and len(frames) < 2:
                continue  # inter needs a reference frame
            config = stage_config(stage, profile)
            served = stage == PipelineStage.INTRA  # the rest are ablations
            encoder = FrameEncoder if served else ReferenceEncoder
            # The largest QP whose pixel MSE stays under the budget: the
            # search ratecontrol.search_qp_for_mse runs for production.
            qp, encoded, _ = solve_qp(
                lambda qp: encoder(replace(config, qp=qp)).encode(frames),
                lambda result: result.mse,
                pixel_mse_target,
                0.25,
                distortion=True,
            )
            results.append(
                StageResult(stage, encoded.bits_per_value, encoded.mse, qp)
            )
    return results
