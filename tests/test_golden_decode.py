"""Golden decode vectors: last month's bitstreams, this month's decoders.

``tests/golden/`` holds ten tiny streams written by the encoder as it
stood before the reference implementations moved to
:mod:`repro.codec.reference` (three profiles x {intra, inter}, each
coding tool off once, a fractional QP), with the sha256 of the frames
that commit's three decoders agreed on, and the ``encode_*`` streams
``test_golden_encode.py`` pins the production encoder to, with the
frames they decoded to when they were written.  Every reconstruction site is
order-defined, so the hashes are machine-stable: both decoders there
are -- the whole-slice kernels and their pure-Python twin -- must still
read every stream to exactly those frames.  Under
``LLM265_PURE_PYTHON=1`` the kernel leg runs the twin too.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.codec.decoder import decode_frames
from repro.codec.entropy import native

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

_DIR = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(_DIR, "MANIFEST.json")) as _fh:
    _MANIFEST = json.load(_fh)


def _frames_hash(frames) -> str:
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(repr(frame.shape).encode())
        digest.update(np.ascontiguousarray(frame).tobytes())
    return digest.hexdigest()


def _twin(data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        return decode_frames(data)


_DECODERS = {
    "kernels": decode_frames,
    "twin": _twin,
}


def test_manifest_covers_the_format():
    decode_vectors = [
        entry for name, entry in _MANIFEST.items() if not name.startswith("encode_")
    ]
    assert len(decode_vectors) == 10
    assert {entry["profile"] for entry in decode_vectors} == {"h264", "h265", "av1"}
    for tool in ("use_inter", "use_partition", "use_transform", "use_intra"):
        assert any(tool in entry["encoder"] for entry in decode_vectors), tool


@pytest.mark.parametrize("decoder", sorted(_DECODERS))
@pytest.mark.parametrize("name", sorted(_MANIFEST))
def test_golden_stream_decodes_to_its_recorded_frames(name, decoder):
    entry = _MANIFEST[name]
    with open(os.path.join(_DIR, name + ".lv65"), "rb") as fh:
        data = fh.read()
    assert len(data) == entry["stream_bytes"] <= 2048
    assert hashlib.sha256(data).hexdigest() == entry["stream_sha256"]
    frames = _DECODERS[decoder](data)
    n, height, width = entry["frames"]
    assert len(frames) == n and frames[0].shape == (height, width)
    assert _frames_hash(frames) == entry["frames_sha256"]
