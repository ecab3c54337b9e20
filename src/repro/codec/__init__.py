"""From-scratch video codec: the substrate LLM.265 is built on.

The package implements an H.264/H.265/AV1-flavoured block codec:

- :mod:`repro.codec.entropy` -- bit I/O, Exp-Golomb, an adaptive binary
  arithmetic coder (CABAC-style), Huffman, LZ4-style and Deflate-style
  coders, all with matching decoders.
- :mod:`repro.codec.transform` -- 2-D DCT transform coding.
- :mod:`repro.codec.quantizer` -- QP-driven coefficient quantization.
- :mod:`repro.codec.intra` -- planar / DC / 33-angular intra prediction.
- :mod:`repro.codec.encoder` / :mod:`repro.codec.decoder` -- the
  two-pass RD-optimised intra encoder and the bit-exact decoder (intra
  and motion-compensated inter).
- :mod:`repro.codec.reference` -- the exact search, the stage
  ablations (inter prediction among them) and the interleaved decoder,
  for tests, benchmarks and the figures; nothing served imports it.
- :mod:`repro.codec.image` -- still-image convenience path (AVC-I
  style), the three-in-one codec's image input.
- :mod:`repro.codec.pipeline` -- the stage-by-stage ablation used for
  Figure 2(b) of the paper.
- :mod:`repro.codec.ratecontrol` -- bitrate / MSE targeting.
- :mod:`repro.codec.profiles` -- H.264 / H.265 / AV1 toolset profiles.
"""

__all__ = [
    "FrameEncoder",
    "encode_frames",
    "decode_frames",
    "CodecProfile",
    "H264_PROFILE",
    "H265_PROFILE",
    "AV1_PROFILE",
]

_LAZY_EXPORTS = {
    "FrameEncoder": ("repro.codec.encoder", "FrameEncoder"),
    "encode_frames": ("repro.codec.encoder", "encode_frames"),
    "decode_frames": ("repro.codec.decoder", "decode_frames"),
    "CodecProfile": ("repro.codec.profiles", "CodecProfile"),
    "H264_PROFILE": ("repro.codec.profiles", "H264_PROFILE"),
    "H265_PROFILE": ("repro.codec.profiles", "H265_PROFILE"),
    "AV1_PROFILE": ("repro.codec.profiles", "AV1_PROFILE"),
}


def __getattr__(name):
    """Lazily resolve the public API (PEP 562)."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.codec' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr)
