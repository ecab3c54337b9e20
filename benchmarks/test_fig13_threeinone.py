"""Figure 13: the three-in-one codec handles tensors, images, and video.

Two halves:

1. *Functional*: one coding engine (this repository's intra pipeline)
   processes all three input kinds -- a weight tensor through
   ``TensorCodec``, a still image through the AVC-Image-style path, and
   a multi-frame video with inter prediction enabled.
2. *Hardware model*: the area partitioning claims -- 80% of the
   three-in-one encoder is the shared pipeline, tensor work powers only
   the shared partition, and multimedia keeps static priority.
"""

import numpy as np
import pytest

from conftest import print_table, scaled

from repro.codec.decoder import decode_frames
from repro.codec import reference
from repro.codec.encoder import EncoderConfig
from repro.codec.image import decode_image, encode_image, image_psnr
from repro.hardware.threeinone import (
    SHARED_PIPELINE_FRACTION,
    THREE_IN_ONE_DEC,
    THREE_IN_ONE_ENC,
    InputKind,
    overhead_versus_tensor_only,
)
from repro.models.synthetic_weights import weight_like
from repro.tensor.codec import TensorCodec


def _moving_video(frames=4, size=64, seed=0):
    rng = np.random.default_rng(seed)
    base = np.clip(
        128 + 50 * np.sin(np.arange(size) / 7.0)[None, :] + rng.normal(0, 4, (size, size)),
        0,
        255,
    ).astype(np.uint8)
    return [np.roll(base, shift, axis=1) for shift in range(0, frames * 2, 2)]


def test_fig13_one_engine_three_inputs(run_once):
    def experiment():
        size = scaled(64, 48)
        rows = []

        # (1) tensor path: intra-only, MX-alignment front end.
        tensor = weight_like(size, size, seed=1)
        codec = TensorCodec(tile=size)
        compressed = codec.encode(tensor, bits_per_value=3.0)
        restored = codec.decode(compressed)
        tensor_ok = float(np.mean((restored - tensor) ** 2)) < np.var(tensor)
        rows.append(("tensor", f"{compressed.bits_per_value:.2f} bits/value",
                     "intra pipeline + alignment"))

        # (2) image path: AVC-Image style single intra frame.
        rng = np.random.default_rng(2)
        y, x = np.mgrid[0:size, 0:size]
        image = 120 + 60 * np.sin(x / 9.0) + 40 * np.cos(y / 13.0)
        image[size // 3 :, size // 2 :] += 50
        image = np.clip(image + rng.normal(0, 3, (size, size)), 0, 255).astype(
            np.uint8
        )
        blob = encode_image(image, qp=24)
        psnr = image_psnr(image, decode_image(blob))
        rows.append(("image", f"{psnr:.1f} dB @ {8 * len(blob) / image.size:.2f} bpp",
                     "intra pipeline only"))

        # (3) video path: inter prediction engaged, wins on motion.  The
        # tensor service is intra-only, so both sides are the reference
        # encoder's exact search.
        video = _moving_video(size=size)
        inter = EncoderConfig(qp=24, use_inter=True)
        with_inter = reference.encode_frames(video, inter)
        without = reference.encode_frames(video, EncoderConfig(qp=24))
        decoded = decode_frames(with_inter.data)
        video_ok = len(decoded) == len(video)
        rows.append(
            (
                "video",
                f"{with_inter.bits_per_value:.2f} vs {without.bits_per_value:.2f} "
                "bits/px (inter vs intra)",
                "shared + video pipeline",
            )
        )
        return rows, tensor_ok, psnr, video_ok, with_inter, without

    rows, tensor_ok, psnr, video_ok, with_inter, without = run_once(experiment)
    print_table(
        "Figure 13: one engine, three input types",
        ("input", "result", "active blocks"),
        rows,
    )
    assert tensor_ok
    assert psnr > 28.0
    assert video_ok
    # Inter prediction earns its area on real video (unlike tensors).
    assert with_inter.bits_per_value < without.bits_per_value


def test_fig13_partitioning_model(run_once):
    def experiment():
        return {
            "shared_fraction": SHARED_PIPELINE_FRACTION,
            "video_overhead": overhead_versus_tensor_only(),
            "tensor_area": THREE_IN_ONE_ENC.active_area_mm2(InputKind.TENSOR),
            "video_area": THREE_IN_ONE_ENC.active_area_mm2(InputKind.VIDEO),
            "split": THREE_IN_ONE_ENC.partition(0.7),
        }

    model = run_once(experiment)
    rows = [
        ("shared pipeline fraction", f"{model['shared_fraction']:.0%}"),
        ("video/image support overhead", f"{model['video_overhead']:.0%}"),
        ("area active for tensors", f"{model['tensor_area']:.2f} mm^2"),
        ("area active for video", f"{model['video_area']:.2f} mm^2"),
        ("tensor share of shared pipeline", f"{model['split']['tensor_gbps']:.0f} Gb/s"),
    ]
    print_table("Figure 13: three-in-one partitioning", ("quantity", "value"), rows)
    assert model["shared_fraction"] == 0.80
    assert model["tensor_area"] < model["video_area"]
    # Decoder is cheaper than the encoder, as in Table 3.
    assert (
        THREE_IN_ONE_DEC.component.area_mm2 < THREE_IN_ONE_ENC.component.area_mm2
    )
