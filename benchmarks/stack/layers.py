"""The entry-point ladder: the same op driven at each layer's public door.

Encode/decode ladder (top to bottom)::

    cluster   ClusterRouter.encode / .decode
    serving   CodecService.encode / .decode
    tensor    TensorCodec.encode + CompressedTensor.to_bytes / from_bytes + decode
    codec     encode_frames / decode_frames

Store ladder::

    cluster   ClusterRouter.put / .get
    shard     ClusterShard.put / .get
    store     ShardStore.put / .get

Each level records a root span per op with one child span per public
call, and hands back what the checker needs.  A layer's self time is
its median minus the median of the level beneath, on the same ops.

The codec is built the way production builds it: from the fields of
``serving.ladder.DEFAULT_LADDER[0]``, passing only the keyword
arguments the constructor still accepts -- so deleting a codec mode
(ROADMAP item 2) does not need an edit here.
"""

from __future__ import annotations

import dataclasses
import inspect
from time import perf_counter
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

import check
import inputs
from spans import Recorder


class PairResult(NamedTuple):
    failure: Optional[str]
    stored_bytes: int
    restored: object
    qp: float = 0.0
    rungs: tuple = ()  # ladder rung names of the responses (serving/cluster)
    flags: tuple = ()  # (hedged, hedge_won, failovers) per response (cluster)


# -- building the codec as production does ----------------------------------


def accepted_kwargs(target: Callable, candidates: Dict[str, object]) -> Dict[str, object]:
    """The subset of ``candidates`` that ``target`` takes by keyword."""
    parameters = inspect.signature(target).parameters
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return dict(candidates)
    return {name: value for name, value in candidates.items() if name in parameters}


def production_fields() -> Dict[str, object]:
    """Fields of the service's top rung (everything but its label)."""
    from repro.serving.ladder import DEFAULT_LADDER

    rung = DEFAULT_LADDER[0]
    return {
        f.name: getattr(rung, f.name)
        for f in dataclasses.fields(rung)
        if f.name != "name"
    }


def production_codec(tile: int, serial: bool = False, codec_class=None):
    """``TensorCodec`` configured like the service's top rung."""
    if codec_class is None:
        from repro.tensor.codec import TensorCodec as codec_class
    fields = production_fields()
    if serial:
        fields["parallel"] = None
    return codec_class(tile=tile, **accepted_kwargs(codec_class.__init__, fields))


# -- encode/decode ladder -----------------------------------------------------


class CodecLevel:
    """``encode_frames`` / ``decode_frames`` on the tiles the tensor layer cuts."""

    name = "codec"

    def __init__(self, tile: int) -> None:
        from repro.codec.decoder import decode_frames
        from repro.codec.encoder import EncoderConfig, encode_frames

        self.tile = tile
        self._encode = encode_frames
        self._decode = decode_frames
        self._config = EncoderConfig
        fields = production_fields()
        self._encoder_fields = accepted_kwargs(EncoderConfig, fields)
        self._decoder_fields = accepted_kwargs(decode_frames, fields)

    def pair(self, rec: Recorder, op: str, tensor: np.ndarray, key: str, qp: float) -> PairResult:
        frames, _ = inputs.frames_of(tensor, self.tile)
        config = self._config(qp=qp, **self._encoder_fields)
        root = rec.reserve()
        t0 = perf_counter()
        result = self._encode(frames, config)
        t1 = perf_counter()
        decoded = self._decode(result.data, **self._decoder_fields)
        t2 = perf_counter()
        rec.add("codec.encode_frames", op, t0, t1, root)
        rec.add("codec.decode_frames", op, t1, t2, root)
        rec.add_root(root, "codec.op", op, t0, t2)
        failure = None
        if len(decoded) != len(frames):
            failure = f"decode_frames returned {len(decoded)} frames, not {len(frames)}"
        return PairResult(failure, len(result.data), None)


class TensorLevel:
    """Bare ``TensorCodec`` plus the container round trip."""

    name = "tensor"

    def __init__(self, tile: int, targets: Dict[str, float], serial: bool = False) -> None:
        from repro.tensor.codec import CompressedTensor

        self.codec = production_codec(tile, serial=serial)
        self.targets = targets
        self._from_bytes = CompressedTensor.from_bytes

    def pair(self, rec: Recorder, op: str, tensor: np.ndarray, key: str, qp: float = 0.0) -> PairResult:
        root = rec.reserve()
        t0 = perf_counter()
        compressed = self.codec.encode(tensor, **self.targets)
        t1 = perf_counter()
        blob = compressed.to_bytes()
        t2 = perf_counter()
        parsed = self._from_bytes(blob)
        t3 = perf_counter()
        restored = self.codec.decode(parsed)
        t4 = perf_counter()
        rec.add("tensor.encode", op, t0, t1, root)
        rec.add("tensor.to_bytes", op, t1, t2, root)
        rec.add("tensor.from_bytes", op, t2, t3, root)
        rec.add("tensor.decode", op, t3, t4, root)
        rec.add("write", op, t0, t2, root)
        rec.add("read", op, t2, t4, root)
        rec.add_root(root, "tensor.op", op, t0, t4)
        failure = None
        if "bits_per_value" in self.targets and not compressed.budget_met:
            failure = "bit budget not met"
        return PairResult(failure, len(blob), restored, float(compressed.qp))

    def close(self) -> None:
        """Nothing to release; every workload's entry object has ``close``."""


class _ResponseLevel:
    """Shared body of the two levels that answer with typed responses."""

    name = ""

    def _encode(self, tensor, key):
        raise NotImplementedError

    def _decode(self, blob, key):
        raise NotImplementedError

    def pair(self, rec: Recorder, op: str, tensor: np.ndarray, key: str, qp: float = 0.0) -> PairResult:
        root = rec.reserve()
        t0 = perf_counter()
        encoded = self._encode(tensor, key)
        t1 = perf_counter()
        rec.add(f"{self.name}.encode", op, t0, t1, root)
        rec.sample("write", t1 - t0)
        failure = check.response_reason(encoded)
        if failure is not None:
            rec.add_root(root, f"{self.name}.op", op, t0, t1)
            return PairResult(failure, 0, None)
        blob = encoded.value.to_bytes()  # the caller's hand-off, not timed
        t2 = perf_counter()
        decoded = self._decode(blob, key)
        t3 = perf_counter()
        rec.add(f"{self.name}.decode", op, t2, t3, root)
        rec.sample("read", t3 - t2)
        rec.add_root(root, f"{self.name}.op", op, t0, t3)
        failure = check.response_reason(decoded)
        flags = tuple(
            (r.hedged, r.hedge_won, r.failovers)
            for r in (encoded, decoded)
            if hasattr(r, "hedged")
        )
        return PairResult(
            failure, len(blob), decoded.value,
            float(encoded.value.qp), (encoded.rung, decoded.rung), flags,
        )


class ServingLevel(_ResponseLevel):
    """One ``CodecService`` with the envelope a cluster shard gives it."""

    name = "serving"

    def __init__(self) -> None:
        from repro.cluster.router import ClusterConfig
        from repro.serving.service import CodecService

        self.service = CodecService(ClusterConfig().service_config(0))

    def _encode(self, tensor, key):
        return self.service.encode(tensor)

    def _decode(self, blob, key):
        return self.service.decode(blob)


class ClusterLevel(_ResponseLevel):
    """``ClusterRouter`` with every default (4 shards, R = 2, hedging)."""

    name = "cluster"

    def __init__(self) -> None:
        from repro.cluster.router import ClusterConfig, ClusterRouter

        self.router = ClusterRouter(ClusterConfig())

    def _encode(self, tensor, key):
        return self.router.encode(tensor, key)

    def _decode(self, blob, key):
        return self.router.decode(blob, key)

    def close(self) -> None:
        self.router.close()


def service_targets() -> Dict[str, float]:
    """Tile and QP the cluster's shards apply to a request without targets."""
    from repro.cluster.router import ClusterConfig

    config = ClusterConfig()
    return {"tile": config.tile, "qp": config.default_qp}


# -- store ladder ---------------------------------------------------------------


def open_router(root: str):
    """A durable router over ``root``: R = 2, quorum = all, fsync on."""
    from repro.cluster.router import ClusterConfig, ClusterRouter

    return ClusterRouter(ClusterConfig(store_root=root, store_fsync=True))


class StoreLevel:
    """put/get through one of the three store doors; same signature each."""

    def __init__(self, name: str, put: Callable, get: Callable, close: Callable) -> None:
        self.name = name
        self.put = put  # (key, blob, version) -> failure reason or None
        self.get = get  # (key) -> (failure reason or None, bytes or None)
        self.close = close


def cluster_store_level(router) -> StoreLevel:
    replicas = min(router.config.replication, len(router.shard_ids))

    def put(key, blob, version):
        return check.put_reason(router.put(blob, key), replicas)

    def get(key):
        response = router.get(key)
        return check.response_reason(response), response.value

    return StoreLevel("cluster", put, get, router.close)


def shard_store_level(directory: str) -> StoreLevel:
    from repro.cluster.shard import ClusterShard

    shard = ClusterShard("bench-shard", store_dir=directory, store_fsync=True)

    def put(key, blob, version):
        return check.response_reason(shard.put(key, blob, version))

    def get(key):
        response = shard.get(key)
        return check.response_reason(response), response.value

    return StoreLevel("shard", put, get, shard.store.close)


def bare_store_level(directory: str) -> StoreLevel:
    from repro.cluster.store import ShardStore

    store = ShardStore(directory, fsync=True)

    def put(key, blob, version):
        store.put(key, blob, version)
        return None

    def get(key):
        return None, store.get(key)

    return StoreLevel("store", put, get, store.close)
