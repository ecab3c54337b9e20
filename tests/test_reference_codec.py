"""The reference module is for comparing against, never for serving.

Sample identity of :mod:`repro.codec.reference`'s decoder with
production, and the reference encoder's own streams, are held
elsewhere (``test_fast_decode.py``, ``test_decode_fuzz.py``,
``test_golden_decode.py``, ``test_reference_encode.py``,
``test_vectorized_rd.py``).  This file pins the boundary: nothing a
request runs through imports it, no option selects it, and the option
surface that is left says only "production".
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.codec import decoder as decoder_mod
from repro.codec import reference
from repro.codec.decoder import FrameDecoder, decode_frames
from repro.codec.encoder import ENCODES, EncoderConfig, encode_frames
from repro.serving.ladder import DEFAULT_LADDER, Rung
from repro.tensor.codec import TensorCodec

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]


def test_serving_stack_never_imports_the_reference():
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.tensor, repro.serving, repro.cluster\n"
        "import repro.serving.service, repro.serving.chaos\n"
        "import repro.cluster.router, repro.cluster.chaos\n"
        "import repro.tensor.checkpoint, repro.tensor.codec\n"
        "assert 'repro.codec.encoder' in sys.modules\n"
        "assert 'repro.codec.reference' not in sys.modules, 'reference imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr


class TestOptionSurface:
    def test_encoder_config_names_production_only(self):
        fields = {f.name: f.default for f in dataclasses.fields(EncoderConfig)}
        for gone in ("fast_entropy", "satd_prune", "rd_search", "search_range"):
            assert gone not in fields
        assert ENCODES == ("native", "python") and fields["encode"] == "native"
        # No constructor takes a search name; the two names left are
        # read-only and say the one search there is.
        for build in (EncoderConfig, TensorCodec, lambda **kw: Rung("x", **kw)):
            with pytest.raises(TypeError, match="rd_search"):
                build(rd_search="turbo")
        assert "use_inter" not in inspect.signature(TensorCodec).parameters
        assert TensorCodec().rd_search == "turbo"
        assert {rung.rd_search for rung in DEFAULT_LADDER} == {"turbo"}

    def test_no_decode_option_anywhere(self):
        assert not hasattr(decoder_mod, "DECODES")
        for fn in (
            FrameDecoder.__init__,
            decode_frames,
            decoder_mod.decode_frames_with_report,
            TensorCodec.__init__,
        ):
            assert "decode" not in inspect.signature(fn).parameters, fn


class TestReferenceIsSelfContained:
    def test_reference_roundtrip_through_both_sides(self):
        rng = np.random.default_rng(3)
        frames = [
            np.clip(rng.normal(128, 30, (40, 56)), 0, 255).astype(np.uint8)
            for _ in range(3)
        ]
        config = EncoderConfig(qp=26.0, use_inter=True)
        ref = reference.encode_frames(frames, config)
        with pytest.raises(ValueError, match="repro.codec.reference"):
            encode_frames(frames, config)  # production refuses inter
        for a, b in zip(reference.decode_frames(ref.data), decode_frames(ref.data)):
            np.testing.assert_array_equal(a, b)

    def test_reference_decoder_has_no_fanout(self):
        assert "parallel" not in inspect.signature(
            reference.ReferenceDecoder.__init__
        ).parameters
