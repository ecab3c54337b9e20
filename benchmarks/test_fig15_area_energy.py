"""Figure 15: communication-system area and energy per codec.

(a) total codec+NIC area to sustain 100 Gb/s effective bandwidth --
the NIC shrinks with each codec's *measured* compression ratio (taken
from our software implementations on gradient tensors), so better
information efficiency shows up as silicon savings.
(b) energy to communicate one epoch of Pythia-125M gradients.

Paper result: the three-in-one codec wins both, mostly by shrinking the
NIC, the dominant area/power term.
"""

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.codec.entropy.bytecoder import byte_arith_encode
from repro.codec.entropy.deflate import deflate_compress
from repro.codec.entropy.huffman import huffman_compress
from repro.codec.entropy.lz4 import lz4_compress
from repro.hardware.nic import communication_system_area, communication_system_energy
from repro.models.synthetic_weights import gradient_like
from repro.models.zoo import parameter_bytes
from repro.quant.mxfp import MXFP_FORMATS, mx_pack_bytes
from repro.tensor.codec import TensorCodec

#: One epoch of the 5M-sample Pile subset at batch 16 -> steps/epoch.
STEPS_PER_EPOCH = 5_000_000 // (16 * 8)

COMPRESSORS = {
    "huffman": ("H.", huffman_compress),
    "deflate": ("D.", deflate_compress),
    "lz4": ("L.", lz4_compress),
    "cabac": ("C.", byte_arith_encode),
}


def _measured_ratios():
    """Compression ratio (vs FP16) per hardware-codec family."""
    size = scaled(128, 64)
    grad = gradient_like(size, size, seed=4).astype(np.float64)
    raw_bits = 16.0 * grad.size
    ratios = {}
    packed = mx_pack_bytes(grad, MXFP_FORMATS["mxfp6"])
    for name, (_, compress) in COMPRESSORS.items():
        ratios[name] = raw_bits / (8.0 * len(compress(packed)))
    codec = TensorCodec(tile=256)
    compressed = codec.encode(grad, bits_per_value=3.5)
    ratios["three-in-one"] = 16.0 / compressed.bits_per_value
    return ratios


def test_fig15a_total_area(run_once):
    ratios = run_once(_measured_ratios)
    rows = []
    sizings = {}
    for codec, ratio in [(None, 1.0)] + sorted(ratios.items()):
        sizing = communication_system_area(codec, ratio)
        label = codec or "uncompressed"
        sizings[label] = sizing["total_mm2"]
        rows.append(
            (
                label,
                f"{ratio:.2f}x",
                f"{sizing['codec_mm2']:.2f}",
                f"{sizing['nic_mm2']:.1f}",
                f"{sizing['total_mm2']:.1f}",
            )
        )
    print_table(
        "Figure 15(a): codec+NIC area for 100 Gb/s effective bandwidth",
        ("codec", "measured ratio", "codec mm^2", "NIC mm^2", "total mm^2"),
        rows,
    )
    # The three-in-one codec yields the smallest communication system.
    best = min(sizings, key=sizings.get)
    assert best == "three-in-one", sizings
    assert sizings["three-in-one"] < sizings["uncompressed"] / 2


def test_fig15b_epoch_energy(run_once):
    def experiment():
        ratios = _measured_ratios()
        payload = parameter_bytes("pythia-125m-sim") * STEPS_PER_EPOCH
        rows = []
        energies = {}
        for codec, ratio in [(None, 1.0)] + sorted(ratios.items()):
            label = codec or "uncompressed"
            joules = communication_system_energy(codec, ratio, payload)
            energies[label] = joules
            rows.append((label, f"{ratio:.2f}x", f"{joules:.1f}"))
        return rows, energies

    rows, energies = run_once(experiment)
    print_table(
        "Figure 15(b): energy for one epoch of Pythia-125M (sim) gradients",
        ("codec", "ratio", "energy J"),
        rows,
    )
    assert min(energies, key=energies.get) == "three-in-one"
    assert energies["three-in-one"] < energies["uncompressed"] / 2
