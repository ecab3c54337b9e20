"""The reference module is for comparing against, never for serving.

The reference encoder's own streams are held elsewhere
(``test_reference_encode.py``, ``test_vectorized_rd.py``), and so is
the decoder they are read by (``test_fast_decode.py``,
``test_decode_fuzz.py``, ``test_golden_decode.py``).  This file pins
the boundary: nothing a request runs through imports the module, no
option selects it, it has no decoder of its own, and the option surface
that is left says only "production".
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
        assert [rung.rd_search for rung in DEFAULT_LADDER] == ["turbo"]

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
        ref_encoder = reference.ReferenceEncoder(config)
        ref = ref_encoder.encode(frames)
        with pytest.raises(ValueError, match="repro.codec.reference"):
            encode_frames(frames, config)  # production refuses inter
        # The one decoder reads the stream back to the encoder's plane.
        decoder = FrameDecoder(ref.data)
        assert len(decoder.decode()) == len(frames)
        assert decoder._reference.tobytes() == ref_encoder._reference.tobytes()

    def test_reference_has_no_decoder(self):
        # Two decoders, the kernels and their twin: the interleaved one
        # and its primitive coefficient reader are gone, not moved.
        assert reference.__all__ == [
            "ReferenceEncoder",
            "encode_frames",
            "estimate_mode_bits",
            "gather_references_scalar",
            "predict_batch",
        ]
        for name in ("decode_frames", "decode_frames_with_report", "decode_coeff_block"):
            assert not hasattr(reference, name), name
        assert not any(
            isinstance(value, type) and issubclass(value, FrameDecoder)
            for value in vars(reference).values()
        )
