"""Seeded inputs and op schedules of the stack benchmark (numpy only).

The program under test never sees the seed, only the arrays and byte
strings made here, so it cannot alter its own workload.  Every tensor
is a pure function of ``(seed, workload, index)``: the timed loop, the
entry-point replays of the traced run and the tests all regenerate the
same op from its index instead of holding the whole schedule in memory
(which would show up in ``peak_rss_mb``).

The generators are *stratified*: per-channel scales are the quantiles
of a log-normal in seeded order, and every frame tile carries outliers
whose extremes are fixed, so each tile's min-max range -- and with it
the 8-bit sample grid the codec sees -- is the same on every seed.
Only positions, order and the bell-shaped bulk are drawn.  That is what
lets ``bits_per_value`` and ``nmse`` repeat across seeds to a small
fraction of a percent; with free-running outliers the range of a tile
is one extreme draw and the bit rate follows it by several percent.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

WORKLOADS = (
    "weights_fixed_qp",
    "weights_bit_budget",
    "cluster_kv_pages",
    "store_put_get",
)

#: Ops of the timed phase at ``--scale 1`` (tensors, tensors,
#: encode+decode pairs, put/get ops).
FULL_OPS = {
    "weights_fixed_qp": 100,
    "weights_bit_budget": 40,
    "cluster_kv_pages": 1000,
    "store_put_get": 80_000,
}
WEIGHT_EDGE = {"weights_fixed_qp": 512, "weights_bit_budget": 256}
WEIGHT_TILE = 256
KV_SHAPE = (16, 128)
KV_TILE = 32
KV_SESSIONS = 8  # sticky ids per client

STORE_KEYS = 512
STORE_PUT_SHARE = 0.10
STORE_ZIPF = 1.2
STORE_POOL = 64  # distinct pre-encoded payloads the puts cycle through
STORE_BLOB_SHAPE = (128, 128)
STORE_BLOB_QP = 12.0
ENVELOPE = struct.Struct("<Q")  # makes each put's bytes unique
GENERATION = 10_000_000  # serials of one schedule generation


def _rng(seed: int, workload: str, *path: int) -> np.random.Generator:
    entropy = [int(seed), WORKLOADS.index(workload), *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@functools.lru_cache(maxsize=None)
def _normal_quantiles(n: int) -> np.ndarray:
    dist = statistics.NormalDist()
    return np.array([dist.inv_cdf((i + 0.5) / n) for i in range(n)])


def _channel_scales(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    return rng.permutation(np.exp(sigma * _normal_quantiles(n)))


def weight_tensor(seed: int, workload: str, index: int) -> np.ndarray:
    """Channel-structured bell-shaped fp32 weights with sparse outliers."""
    n = WEIGHT_EDGE[workload]
    rng = _rng(seed, workload, index)
    sigma = 0.02 * _channel_scales(rng, n, 0.5)[None, :]
    values = np.clip(rng.standard_normal((n, n)) * sigma, -4.0 * sigma, 4.0 * sigma)
    # 64 outliers per frame tile, +-(8..24) bulk sigmas: the largest pair
    # lies outside the clipped bulk of the widest channel, so it alone
    # sets the tile's range.
    magnitudes = 0.02 * np.linspace(8.0, 24.0, 32)
    signed = np.concatenate([magnitudes, -magnitudes])
    for y0 in range(0, n, WEIGHT_TILE):
        for x0 in range(0, n, WEIGHT_TILE):
            cells = rng.choice(WEIGHT_TILE * WEIGHT_TILE, signed.size, replace=False)
            ys, xs = np.divmod(cells, WEIGHT_TILE)
            values[y0 + ys, x0 + xs] = rng.permutation(signed)
    return values.astype(np.float32)


def kv_page(seed: int, client: int, index: int) -> np.ndarray:
    """One KV-cache page (tokens x channels) with outlier channels.

    Channel scales and the outlier channel of each 32-wide tile belong
    to the session (the model's channel structure does not change from
    page to page); tokens are drawn per page.
    """
    tokens, channels = KV_SHAPE
    session = index % KV_SESSIONS
    model = _rng(seed, "cluster_kv_pages", client, session)
    scales = _channel_scales(model, channels, 0.4)[None, :]
    outlier_at = [
        x0 + int(model.integers(KV_TILE)) for x0 in range(0, channels, KV_TILE)
    ]
    rng = _rng(seed, "cluster_kv_pages", client, session, index)
    page = np.clip(
        rng.standard_normal(KV_SHAPE) * scales, -4.0 * scales, 4.0 * scales
    )
    for column in outlier_at:
        page[:, column] = 12.0 * rng.permutation(_normal_quantiles(tokens))
    return page.astype(np.float32)


def kv_session_id(client: int, index: int) -> str:
    return f"c{client}-s{index % KV_SESSIONS}"


def store_tensor(seed: int, index: int) -> np.ndarray:
    """Source tensor of pool payload ``index`` (weights-like, one tile)."""
    n = STORE_BLOB_SHAPE[0]
    rng = _rng(seed, "store_put_get", index)
    sigma = 0.02 * _channel_scales(rng, n, 0.5)[None, :]
    values = np.clip(rng.standard_normal((n, n)) * sigma, -4.0 * sigma, 4.0 * sigma)
    magnitudes = 0.02 * np.linspace(8.0, 24.0, 8)
    signed = np.concatenate([magnitudes, -magnitudes])
    cells = rng.choice(n * n, signed.size, replace=False)
    values.flat[cells] = rng.permutation(signed)
    return values.astype(np.float32)


def first_tensor(seed: int, workload: str) -> np.ndarray:
    """The first array the workload hands to the program."""
    if workload in WEIGHT_EDGE:
        return weight_tensor(seed, workload, 0)
    if workload == "cluster_kv_pages":
        return kv_page(seed, 0, 0)
    return store_tensor(seed, 0)


def tensor_digest(tensor: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(tensor).tobytes(), digest_size=16
    ).hexdigest()


# -- store schedule ------------------------------------------------------


def store_key(slot: int) -> str:
    """Fixed-width key, so journal records are fixed-width too."""
    return f"key-{slot:05d}"


def envelope(payload: bytes, serial: int) -> bytes:
    return payload + ENVELOPE.pack(serial)


def strip_envelope(blob: bytes) -> bytes:
    return blob[: -ENVELOPE.size]


@dataclass(frozen=True)
class StoreOp:
    put: bool
    slot: int  # key slot, owned by exactly one client
    pool: int  # pool payload of a put (-1 for a get)
    serial: int  # envelope serial of a put (-1 for a get)


def store_schedule(
    seed: int,
    ops: int,
    clients: int,
    generation: int,
    keys: int = STORE_KEYS,
    stream: Optional[int] = None,
) -> List[List[StoreOp]]:
    """Per-client op lists: exact put share, Zipf keys, disjoint key sets.

    Client ``c`` owns the slots ``c, c + clients, ...`` so that a get
    can be checked against that client's own last acknowledged put
    (strict read-your-writes) without a lock around the model.  The put
    count is exact and puts walk the payload pool round-robin, so the
    bytes the store ends up holding do not depend on the draw.

    ``generation`` numbers the put serials (two schedules of one run
    never write equal bytes, which content addressing would dedupe);
    ``stream`` picks the draw and defaults to the generation, so the
    same ops can be replayed under fresh serials.
    """
    per_client = ops // clients
    puts = int(round(per_client * STORE_PUT_SHARE))
    owned = keys // clients
    ranks = np.arange(1, owned + 1, dtype=np.float64)
    weights = ranks ** -STORE_ZIPF
    weights /= weights.sum()
    draw = generation if stream is None else stream
    schedule = []
    for client in range(clients):
        rng = _rng(seed, "store_put_get", 1_000 + draw, client)
        is_put = np.zeros(per_client, dtype=bool)
        is_put[rng.choice(per_client, puts, replace=False)] = True
        popularity = rng.permutation(owned)  # which owned slot is hot
        picks = popularity[rng.choice(owned, per_client, p=weights)]
        plan, put_count = [], 0
        for position in range(per_client):
            slot = int(picks[position]) * clients + client
            if is_put[position]:
                number = put_count * clients + client
                serial = generation * GENERATION + number
                plan.append(StoreOp(True, slot, number % STORE_POOL, serial))
                put_count += 1
            else:
                plan.append(StoreOp(False, slot, -1, -1))
        schedule.append(plan)
    return schedule


def frames_of(tensor: np.ndarray, tile: int) -> Tuple[List[np.ndarray], int]:
    """8-bit min-max sample tiles of ``tensor``, as the tensor layer cuts them.

    Lets the codec entry point (``encode_frames``) be driven with the
    same work the tensor layer gives it, from the benchmark's own code.
    """
    flat = tensor.reshape(-1, tensor.shape[-1]).astype(np.float64)
    frames = []
    for y0 in range(0, flat.shape[0], tile):
        for x0 in range(0, flat.shape[1], tile):
            piece = flat[y0 : y0 + tile, x0 : x0 + tile]
            lo, hi = float(piece.min()), float(piece.max())
            step = (hi - lo) / 255.0 or 1.0
            codes = np.clip(np.rint((piece - lo) / step), 0, 255)
            frames.append(codes.astype(np.uint8))
    return frames, flat.size
