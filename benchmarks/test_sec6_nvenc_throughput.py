"""Section 6.1: NVENC/NVDEC throughput ceilings.

Models the paper's measurements (1100 MB/s encode, 1300 MB/s decode)
and their consequence: on any link faster than ~9 Gb/s the *engine*,
not the wire, caps the end-to-end bandwidth.  Also measures this
repository's software codec throughput for context.
"""

import time

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, encode_frames
from repro.gpu.engines import NVDEC, NVENC, communication_speedup, effective_link_bandwidth
from repro.models.synthetic_weights import weight_like
from repro.tensor.precision import quantize_to_uint8


def test_sec6_engine_model(run_once):
    def experiment():
        rows = []
        for link_gbps in (1.0, 8.8, 25.0, 100.0):
            bandwidth = effective_link_bandwidth(link_gbps / 8.0, 16.0 / 3.5)
            rows.append(
                (
                    f"{link_gbps:.1f} Gb/s",
                    f"{bandwidth:.0f} MB/s",
                    f"{communication_speedup(link_gbps / 8.0, 16.0 / 3.5):.2f}x",
                )
            )
        return rows

    rows = run_once(experiment)
    print_table(
        "Section 6.1: end-to-end bandwidth with NVENC/NVDEC inline",
        ("link", "effective payload", "speedup vs raw"),
        rows,
    )
    # The 1100 MB/s encoder ceiling binds on fast links.
    assert effective_link_bandwidth(12.5, 4.57) == pytest.approx(
        NVENC.throughput_mb_s
    )
    assert NVDEC.throughput_mb_s > NVENC.throughput_mb_s


def test_sec6_software_codec_throughput(run_once):
    """Our pure-Python codec's throughput, for scale context."""

    def experiment():
        size = scaled(128, 64)
        frame = quantize_to_uint8(weight_like(size, size, seed=0))[0]
        start = time.perf_counter()
        encoded = encode_frames([frame], EncoderConfig(qp=24))
        encode_s = time.perf_counter() - start
        start = time.perf_counter()
        decode_frames(encoded.data)
        decode_s = time.perf_counter() - start
        return frame.size, encode_s, decode_s

    size, encode_s, decode_s = run_once(experiment)
    enc_mbs = size / encode_s / 1e6
    dec_mbs = size / decode_s / 1e6
    print_table(
        "Software codec throughput (context: NVENC = 1100 MB/s)",
        ("direction", "MB/s"),
        [("encode", f"{enc_mbs:.2f}"), ("decode", f"{dec_mbs:.2f}")],
    )
    assert enc_mbs > 0.01 and dec_mbs > 0.01
