"""Golden pass-1 pick vectors: the same bits on any machine, any month.

The pick kernel (``llm265_cost_pick``) and its numpy twin
(:func:`repro.codec.encoder._pass1_pick`) use only exactly-rounded IEEE
operations in a stated order -- multiply, add, ``trunc`` / ``rint`` /
``copysign`` / ``fabs``; no BLAS, no libm transcendental -- so unlike a
whole encoded stream (pass 1's operator GEMM is BLAS, its summation
order belongs to the machine) their outputs can be pinned.
``tests/golden/cost_pick.json`` freezes inputs as hex floats (widths
16 / 64 / 1024, two or three QPs across the blocks, an exact tie, an
all-zero candidate) and, for both dead-zone branches, the expected
``best_mode`` and hex ``best_cost``.  Under ``LLM265_PURE_PYTHON=1`` the
kernel leg runs the twin too.
"""

from __future__ import annotations

import ctypes
import json
import os

import numpy as np
import pytest

from repro.codec.encoder import _level_rate_table, _pass1_pick
from repro.codec.entropy import native

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

with open(os.path.join(os.path.dirname(__file__), "golden", "cost_pick.json")) as _fh:
    _CASES = json.load(_fh)["cases"]


def _floats(text: str, *shape: int) -> np.ndarray:
    return np.array([float.fromhex(word) for word in text.split()]).reshape(shape)


def test_vectors_cover_the_edge_cases():
    assert {case["width"] for case in _CASES.values()} == {16, 64, 1024}
    tie = _CASES["w16"]
    pred = _floats(tie["pred"], tie["blocks"], tie["modes"], tie["width"])
    bits = _floats(tie["mode_bits"], tie["modes"])
    assert np.array_equal(pred[2, 1], pred[2, 3]) and bits[1] == bits[3]
    for case in _CASES.values():
        assert [float.fromhex(e["deadzone"]) for e in case["expect"]] == [0.0, 0.15]
    # The tie goes to the earlier candidate; several QPs share one call.
    assert all(e["best_mode"][2] == 1 for e in tie["expect"])
    assert len(set(tie["inv_step"].split())) == 3


def _scalar_pick(*args):
    """The scalar row's entry; the twin when the library is not loaded."""
    if not native.available():
        return _pass1_pick(*args, False)
    fn = native._resolve().llm265_cost_pick_scalar
    fn.restype = ctypes.c_int64
    fn.argtypes = native._PICK_ARGTYPES
    return native._pick(fn, *args, _level_rate_table())


_ENTRIES = {
    "kernel": lambda *args: _pass1_pick(*args, True),
    "scalar": _scalar_pick,
    "twin": lambda *args: _pass1_pick(*args, False),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("name", sorted(_CASES))
def test_pick_reproduces_bit_for_bit(name, entry):
    case = _CASES[name]
    blocks, modes, width = case["blocks"], case["modes"], case["width"]
    coeffs = _floats(case["coeffs"], blocks, width)
    pred = _floats(case["pred"], blocks, modes, width)
    params = [_floats(case[key], blocks) for key in ("inv_step", "step2", "lam")]
    mode_bits = _floats(case["mode_bits"], modes)
    for expect in case["expect"]:
        pick, cost = _ENTRIES[entry](
            coeffs, pred, *params, mode_bits, float.fromhex(expect["deadzone"])
        )
        assert pick.tolist() == expect["best_mode"]
        assert [value.hex() for value in cost.tolist()] == [
            float.fromhex(word).hex() for word in expect["best_cost"].split()
        ]
