"""Design-choice ablations (beyond the paper's figures).

DESIGN.md calls out four encoder design choices; each gets an ablation
so the defaults are justified by measurement rather than folklore:

1. quantizer deadzone on/off,
2. quad-tree partitioning vs fixed blocks,
3. coarse+refine mode search vs coarse-only,
4. QP dithering granularity (fractional-rate smoothness).
"""

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.codec.encoder import EncoderConfig, encode_frames
from repro.codec.profiles import H265_PROFILE, CodecProfile
from repro.models.synthetic_weights import weight_like
from repro.tensor.precision import quantize_to_uint8


@pytest.fixture(scope="module")
def frame():
    size = scaled(128, 64)
    return quantize_to_uint8(weight_like(size, size, mean_strength=6.0, seed=7))[0]


def _rd_point(frame, config):
    result = encode_frames([frame], config)
    return result.bits_per_value, result.mse


def test_ablation_deadzone(run_once, frame):
    def experiment():
        rows = []
        for deadzone in (0.0, 0.15, 0.3):
            profile = CodecProfile(
                **{**H265_PROFILE.__dict__, "name": f"dz{deadzone}", "deadzone": deadzone}
            )
            bits, mse = _rd_point(frame, EncoderConfig(profile=profile, qp=24))
            rows.append((f"{deadzone:.2f}", f"{bits:.3f}", f"{mse:.2f}"))
        return rows

    rows = run_once(experiment)
    print_table("Ablation: quantizer deadzone at QP 24", ("deadzone", "bits", "MSE"), rows)
    bits = [float(r[1]) for r in rows]
    # A wider zero bin always trims rate (at slightly higher distortion).
    assert bits[0] >= bits[1] >= bits[2]


def test_ablation_partitioning(run_once, frame):
    def experiment():
        adaptive = _rd_point(frame, EncoderConfig(qp=24, use_partition=True))
        rows = [("quad-tree", f"{adaptive[0]:.3f}", f"{adaptive[1]:.2f}")]
        fixed_points = {}
        for cu in (8, 16, 32):
            point = _rd_point(
                frame, EncoderConfig(qp=24, use_partition=False, fixed_cu_size=cu)
            )
            fixed_points[cu] = point
            rows.append((f"fixed {cu}x{cu}", f"{point[0]:.3f}", f"{point[1]:.2f}"))
        return rows, adaptive, fixed_points

    rows, adaptive, fixed_points = run_once(experiment)
    print_table("Ablation: CU partitioning at QP 24", ("scheme", "bits", "MSE"), rows)
    # The quad-tree should match or beat every fixed grid on rate at
    # comparable distortion.
    for cu, (bits, mse) in fixed_points.items():
        assert adaptive[0] <= bits * 1.05, f"fixed {cu} beat the quad-tree on rate"


def test_ablation_mode_search(run_once, frame):
    def experiment():
        full = _rd_point(frame, EncoderConfig(qp=24))
        no_refine_profile = CodecProfile(
            **{**H265_PROFILE.__dict__, "name": "norefine", "angular_refine_radius": 0}
        )
        coarse = _rd_point(frame, EncoderConfig(profile=no_refine_profile, qp=24))
        dc_only_profile = CodecProfile(
            **{
                **H265_PROFILE.__dict__,
                "name": "dconly",
                "angular_modes": (26,),
                "coarse_angular_modes": (26,),
                "angular_refine_radius": 0,
            }
        )
        minimal = _rd_point(frame, EncoderConfig(profile=dc_only_profile, qp=24))
        return full, coarse, minimal

    full, coarse, minimal = run_once(experiment)
    rows = [
        ("coarse+refine (default)", f"{full[0]:.3f}", f"{full[1]:.2f}"),
        ("coarse only", f"{coarse[0]:.3f}", f"{coarse[1]:.2f}"),
        ("planar/DC/vertical only", f"{minimal[0]:.3f}", f"{minimal[1]:.2f}"),
    ]
    print_table("Ablation: intra mode search breadth at QP 24", ("search", "bits", "MSE"), rows)
    # More candidate modes never hurt the RD outcome materially.
    assert full[0] <= coarse[0] * 1.02
    assert full[0] <= minimal[0] * 1.05


def test_ablation_alignment_unit(run_once):
    """Section 7 alignment unit: min-max vs MX micro-scaling front-end."""
    from repro.tensor.codec import TensorCodec

    def experiment():
        rng = np.random.default_rng(11)
        size = scaled(96, 64)
        smooth = weight_like(size, size, seed=11).astype(np.float64)
        spiky = rng.normal(0, 0.01, (size, size))
        spiky[rng.random((size, size)) < 1e-3] = rng.normal(0, 5.0)
        rows = []
        results = {}
        for name, tensor in (("weights", smooth), ("extreme-outliers", spiky)):
            for mode in ("minmax", "mx"):
                codec = TensorCodec(tile=size, alignment=mode)
                compressed = codec.encode(tensor, qp=12)
                restored = codec.decode(compressed)
                mse = float(np.mean((restored - tensor) ** 2))
                results[(name, mode)] = (compressed.bits_per_value, mse)
                rows.append(
                    (name, mode, f"{compressed.bits_per_value:.2f}", f"{mse:.2e}")
                )
        return rows, results

    rows, results = run_once(experiment)
    print_table(
        "Ablation: alignment unit (min-max vs MX micro-scaling)",
        ("tensor", "alignment", "bits", "MSE"),
        rows,
    )
    # On extreme outliers MX keeps the clean mass accurate; min-max
    # spends its whole 8-bit range covering the spike.
    assert results[("extreme-outliers", "mx")][1] < results[("extreme-outliers", "minmax")][1]


def test_ablation_qp_dither(run_once, frame):
    def experiment():
        qps = np.arange(22.0, 24.01, 0.25)
        return [(qp, encode_frames([frame], EncoderConfig(qp=float(qp))).bits_per_value) for qp in qps]

    points = run_once(experiment)
    rows = [(f"{qp:.2f}", f"{bits:.3f}") for qp, bits in points]
    print_table("Ablation: fractional QP dithering", ("QP", "bits"), rows)
    bits = [b for _, b in points]
    # Rate responds monotonically (within noise) and in small steps --
    # this is what makes fractional bitrate targets reachable.
    assert bits[-1] <= bits[0]
    deltas = np.abs(np.diff(bits))
    assert deltas.max() < 0.25
