"""Golden encode vectors: this month's encoder writes last month's bytes.

Every stage of ``FrameEncoder`` is order-defined -- pass 1's windows,
predictors, ordered DCT and pick, pass 2's leaves and coder -- and no
BLAS call is left on its path, so a stream is the same bytes on every
machine.  ``tests/golden/encode_*.lv65`` pin it: the three profiles at
fixed QPs (27.3 dithers two into every slice), shapes that pad on one
side, both or neither, and a KV page's four one-CTU slices in one
pass-1 group.  Each case is re-encoded from its recipe in the manifest
with ``encode="native"`` and ``encode="python"`` (the kernels and their
twin; under ``LLM265_PURE_PYTHON=1`` both are the twin) and must be the
file, byte for byte; ``test_golden_decode.py`` reads the same files
back to their recorded frames.

A deliberate stream change rewrites them and says which moved::

    PYTHONPATH=src python tests/test_golden_encode.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.codec.decoder import decode_frames
from repro.codec.encoder import ENCODES, EncoderConfig, FrameEncoder
from repro.codec.profiles import profile_by_name

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

_DIR = os.path.join(os.path.dirname(__file__), "golden")
_MANIFEST_PATH = os.path.join(_DIR, "MANIFEST.json")

#: name -> (profile, QP, frames, height, width): the recipes.
CASES = {
    "encode_h264_64x64": ("h264", 30.0, 2, 64, 64),
    "encode_h265_50x70": ("h265", 27.3, 2, 50, 70),
    "encode_av1_33x17": ("av1", 32.0, 3, 33, 17),
    "encode_h265_kv_page": ("h265", 26.0, 4, 16, 32),
}


def source_frames(count: int, height: int, width: int) -> list:
    """A gradient plus integer-hash texture: no random-number stream,
    so no numpy release can move the inputs."""
    y, x = np.mgrid[:height, :width].astype(np.int64)
    frames = []
    for k in range(count):
        texture = ((x + 3 * k) * 73856093 ^ (y + k) * 19349663) % 23
        base = 40 + 150 * x // max(width - 1, 1) + 40 * y // max(height - 1, 1)
        frames.append(np.clip(base + texture - 11, 0, 255).astype(np.uint8))
    return frames


def _sha256(frames) -> str:
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(repr(frame.shape).encode())
        digest.update(np.ascontiguousarray(frame).tobytes())
    return digest.hexdigest()


def _encode(name: str, encode: str) -> bytes:
    profile, qp, count, height, width = CASES[name]
    config = EncoderConfig(profile=profile_by_name(profile), qp=qp, encode=encode)
    return FrameEncoder(config).encode(source_frames(count, height, width)).data


def _manifest() -> dict:
    with open(_MANIFEST_PATH) as fh:
        return json.load(fh)


def test_every_case_is_in_the_manifest():
    manifest = _manifest()
    for name, (profile, qp, count, height, width) in CASES.items():
        entry = manifest[name]
        assert entry["profile"] == profile and entry["encoder"] == {"qp": qp}
        assert entry["frames"] == [count, height, width]
        assert entry["source_sha256"] == _sha256(source_frames(count, height, width))
    assert {profile for profile, *_ in CASES.values()} == {"h264", "h265", "av1"}
    assert any(qp % 1 for _, qp, *_ in CASES.values())


@pytest.mark.parametrize("encode", ENCODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_encoder_writes_the_golden_stream(name, encode):
    entry = _manifest()[name]
    with open(os.path.join(_DIR, name + ".lv65"), "rb") as fh:
        golden = fh.read()
    assert hashlib.sha256(golden).hexdigest() == entry["stream_sha256"]
    data = _encode(name, encode)
    assert len(data) == entry["stream_bytes"]
    assert data == golden


def _write() -> None:
    """Re-encode every case, rewrite its file and manifest entry, and
    print the cases whose bytes moved."""
    manifest = _manifest()
    for name, (profile, qp, count, height, width) in CASES.items():
        data = _encode(name, "native")
        if data != _encode(name, "python"):
            raise SystemExit(f"{name}: native and python encodes differ")
        old = manifest.get(name, {}).get("stream_sha256")
        digest = hashlib.sha256(data).hexdigest()
        manifest[name] = {
            "encoder": {"qp": qp},
            "frames": [count, height, width],
            "frames_sha256": _sha256(decode_frames(data)),
            "profile": profile,
            "source_sha256": _sha256(source_frames(count, height, width)),
            "stream_bytes": len(data),
            "stream_sha256": digest,
        }
        with open(os.path.join(_DIR, name + ".lv65"), "wb") as fh:
            fh.write(data)
        moved = "new" if old is None else "unchanged" if old == digest else "MOVED"
        print(f"{name}: {len(data)} bytes", moved)
    with open(_MANIFEST_PATH, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
