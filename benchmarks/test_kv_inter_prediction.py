"""Do KV caches want P-frames?  (ROADMAP item 2's evidence.)

The source paper says inter prediction does not help *weights*
(Fig. 2(b)); *Efficient Remote KV Cache Reuse with GPU-native Video
Codec* (PAPERS.md) says it helps *KV caches* across tokens and layers.
This settles it for the codec in this tree: KV caches from
:func:`repro.nn.generate.generate` on the two zoo models, K and V
planes, one 32-token page of one head per frame on a shared 8-bit grid,
coded intra and as a P-frame against four references:

- the **previous token page** of the same head and layer,
- a window **shifted by one token** (31 of its 32 rows are the target's
  own samples -- the append-only case, kept apart on purpose),
- the same tokens in the **neighbouring head**,
- the same tokens in the **neighbouring layer**.

Reported: median and quartiles, over every (layer, head, page), of the
change in bits at equal MSE over QP 14-34 (negative = the P-frame is
smaller).  The bar for porting inter prediction to the fast path is a
10 % saving; the shifted window is not an argument for it, because an
append-only store that codes only the new row beats any P-frame there.
Both sides use the exact search
(:class:`repro.codec.reference.ReferenceEncoder`, the only encoder of
P-frames): turbo's ±1 % would be the size of the effect being measured.
"""

import numpy as np

from bench_helpers import fresh
from conftest import print_table, scaled

from repro.codec.encoder import _HEADER_SIZE, EncoderConfig
from repro.codec.reference import ReferenceEncoder
from repro.nn.generate import generate
from repro.tensor.precision import grid_for

PAGE = 32
QPS = (14.0, 19.0, 24.0, 29.0, 34.0)
REFERENCES = ("previous page", "shifted window", "neighbouring head",
              "neighbouring layer")
#: A P-frame has to save this share of the intra bits to earn a port.
BAR = 0.10


def _kv_planes(model_name):
    """{"K" | "V": codes[layer, head, token, dim]} on one grid per plane."""
    model, corpus = fresh(model_name)
    tokens = model.config.max_seq_len
    prompt = corpus.sample(1, seq_len=tokens // 2, seed=11)[0]
    _, cache = generate(model, prompt, tokens - len(prompt))
    planes = {}
    for name, layers in (("K", cache.keys), ("V", cache.values)):
        values = np.stack(layers).astype(np.float64)
        planes[name] = grid_for(values).to_codes(values)
    return planes


class _Coder:
    """Payload bits and MSE of one frame, alone or after a reference."""

    def __init__(self):
        self._alone = {}

    def _encode(self, frames, qp, use_inter=False):
        config = EncoderConfig(qp=qp, use_inter=use_inter)
        result = ReferenceEncoder(config).encode(frames)
        return 8 * (len(result.data) - _HEADER_SIZE), result.mse

    def intra(self, frame, qp):
        key = (frame.tobytes(), qp)
        if key not in self._alone:
            self._alone[key] = self._encode([frame], qp)
        return self._alone[key]

    def p_frame(self, reference, frame, qp):
        """The second frame's share of a two-frame inter stream (the
        first is coded exactly as it is alone, one slice per frame)."""
        ref_bits, ref_mse = self.intra(reference, qp)
        bits, mse = self._encode([reference, frame], qp, use_inter=True)
        return bits - ref_bits, 2.0 * mse - ref_mse


def _delta_at_equal_mse(intra, inter):
    """Relative change in bits, P-frame vs intra, at equal MSE.

    Both curves are (bits, mse) per QP; bits are interpolated over
    log-MSE and compared on the range the two curves share.
    """
    def curve(points):
        bits, mse = np.array(points, dtype=np.float64).T
        order = np.argsort(mse)
        return np.log(np.maximum(mse[order], 1e-9)), bits[order]

    (mse_i, bits_i), (mse_p, bits_p) = curve(intra), curve(inter)
    lo, hi = max(mse_i[0], mse_p[0]), min(mse_i[-1], mse_p[-1])
    if hi <= lo:
        return None
    grid = np.linspace(lo, hi, 16)
    at_i = np.interp(grid, mse_i, bits_i)
    at_p = np.interp(grid, mse_p, bits_p)
    return float((at_p.sum() - at_i.sum()) / at_i.sum())


def _measure(model_name):
    coder = _Coder()
    rows = []
    for plane, codes in sorted(_kv_planes(model_name).items()):
        layers, heads, tokens, _ = codes.shape
        deltas = {name: [] for name in REFERENCES}
        stride = scaled(1, 2)  # fast mode: every other head
        for layer in range(1, layers):
            for head in range(1, heads, stride):
                for start in range(PAGE, tokens - PAGE + 1, PAGE):
                    page = slice(start, start + PAGE)
                    target = codes[layer, head, page]
                    references = {
                        "previous page":
                            codes[layer, head, start - PAGE:start],
                        "shifted window":
                            codes[layer, head, start - 1:start - 1 + PAGE],
                        "neighbouring head": codes[layer, head - 1, page],
                        "neighbouring layer": codes[layer - 1, head, page],
                    }
                    intra = [coder.intra(target, qp) for qp in QPS]
                    for name, reference in references.items():
                        inter = [coder.p_frame(reference, target, qp)
                                 for qp in QPS]
                        delta = _delta_at_equal_mse(intra, inter)
                        if delta is not None:
                            deltas[name].append(delta)
        for name in REFERENCES:
            q1, median, q3 = np.percentile(deltas[name], (25, 50, 75))
            rows.append((model_name, plane, name, len(deltas[name]),
                         median, q1, q3))
    return rows


def test_kv_inter_prediction(run_once):
    def experiment():
        return (_measure("llama2-7b-sim") + _measure("llama3-70b-sim"))

    rows = run_once(experiment)
    print_table(
        "KV cache: P-frame vs intra, change in bits at equal MSE "
        "(QP 14-34; negative = P-frame smaller)",
        ("model", "plane", "reference", "pairs", "median", "q1", "q3"),
        [
            (model, plane, name, pairs,
             f"{100 * median:+.1f}%", f"{100 * q1:+.1f}%", f"{100 * q3:+.1f}%")
            for model, plane, name, pairs, median, q1, q3 in rows
        ],
    )
    for model, plane, name, pairs, median, _q1, _q3 in rows:
        assert pairs >= 4
        if name != "shifted window":
            # No reference that a KV store would actually have saves
            # anywhere near the bar: item 2 takes its "evict" branch.
            assert median > -BAR, (model, plane, name, median)
