"""Component throughput microbenchmarks (the harness's timing side).

Unlike the per-figure experiments (which run once), these use
pytest-benchmark's repeated timing to characterise the software
substrate: DCT, intra prediction, the arithmetic coder, and the
end-to-end tensor codec.  Useful for spotting performance regressions
in the codec core.
"""

import numpy as np
import pytest

from repro.codec import intra
from repro.codec.decoder import decode_frames
from repro.codec.encoder import EncoderConfig, encode_frames
from repro.codec.entropy.arithmetic import BinaryDecoder, BinaryEncoder, ContextSet
from repro.codec.transform import forward_dct2_batch, inverse_dct2_batch
from repro.models.synthetic_weights import weight_like
from repro.tensor.codec import TensorCodec
from repro.tensor.precision import quantize_to_uint8

rng = np.random.default_rng(0)


def test_throughput_dct_batch(benchmark):
    blocks = rng.normal(0, 10, (256, 8, 8))
    result = benchmark(forward_dct2_batch, blocks)
    assert result.shape == blocks.shape


def test_throughput_idct_batch(benchmark):
    coeffs = rng.normal(0, 10, (256, 8, 8))
    result = benchmark(inverse_dct2_batch, coeffs)
    assert result.shape == coeffs.shape


def test_throughput_intra_prediction(benchmark):
    frame = rng.uniform(0, 255, (64, 64))
    mask = np.ones((64, 64), dtype=bool)
    top, left = intra.gather_references(frame, mask, 16, 16, 16)

    def predict_all():
        return intra.predict_many(top, left, list(range(35)), 16)

    result = benchmark(predict_all)
    assert result.shape == (35, 16, 16)


def test_throughput_arithmetic_coder(benchmark):
    bits = (rng.random(20_000) < 0.2).astype(int).tolist()

    def roundtrip():
        enc = BinaryEncoder()
        ctx = ContextSet(4)
        for i, bit in enumerate(bits):
            enc.encode_bit(ctx, i & 3, bit)
        blob = enc.finish()
        dec = BinaryDecoder(blob)
        ctx2 = ContextSet(4)
        for i in range(len(bits)):
            dec.decode_bit(ctx2, i & 3)
        return blob

    blob = benchmark(roundtrip)
    assert len(blob) * 8 < len(bits)  # skewed source compresses


def test_throughput_frame_encode(benchmark):
    frame = quantize_to_uint8(weight_like(64, 64, seed=1))[0]
    result = benchmark(encode_frames, [frame], EncoderConfig(qp=24))
    assert result.bits_per_value > 0


def test_throughput_frame_decode(benchmark):
    frame = quantize_to_uint8(weight_like(64, 64, seed=2))[0]
    stream = encode_frames([frame], EncoderConfig(qp=24)).data
    frames = benchmark(decode_frames, stream)
    assert frames[0].shape == (64, 64)


def test_throughput_tensor_codec_roundtrip(benchmark):
    codec = TensorCodec(tile=64)
    tensor = weight_like(64, 64, seed=3)

    def roundtrip():
        return codec.decode(codec.encode(tensor, qp=24.0))

    restored = benchmark(roundtrip)
    assert restored.shape == tensor.shape
