"""The four workloads: what is constructed, what an op is, how a phase runs.

Load shape: closed loop (a client sends its next op when the previous
one has answered -- a checkpoint writer or a model server waiting for
its KV page does exactly that), fixed op counts, at most
``min(2, usable cpus)`` client threads, no CPU pinning.
"""

from __future__ import annotations

import os
import struct
import threading
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

import inputs
import layers
import machine
from check import StoreModel, Tally
from spans import Recorder, merged

WARMUP_SHARE = 0.10
TRACE_SHARE = 0.25
#: Index bases that keep warm-up, first-op and probe tensors apart
#: from the timed schedule (a content cache in the program must not be
#: pre-filled with the timed phase's own inputs).
WARMUP_BASE = 1_000_000
FIRST_OP_INDEX = 2_000_000
#: Serial generations of store puts (see ``inputs.store_schedule``).
GEN_POPULATE, GEN_FIRST, GEN_WARMUP, GEN_TIMED, GEN_TRACE = 0, 1, 2, 3, 4
FINAL_DECODE_KEYS = 64
POOL_FILE = "pool.bin"
TEMPLATE_DIR = "template"


#: Per-response tallies of the serving and cluster levels.
COUNT_NAMES = ("responses", "lower_rung", "hedged", "hedge_won", "failovers")


class PhaseResult(NamedTuple):
    recorder: Recorder
    tally: Tally
    wall_s: float  # elapsed minus the benchmark's own per-op work
    counts: Dict[str, int]


def client_count() -> int:
    return min(2, machine.usable_cpus())


def _run_clients(bodies: Sequence[Callable[[], float]]) -> float:
    """Run the client bodies together; elapsed minus harness time.

    Each body returns the seconds it spent in the benchmark's own code
    (making inputs, checking outputs); the slowest client's share is
    taken off the wall so ``ops_per_s`` counts the program's time only.
    """
    if len(bodies) == 1:
        start = perf_counter()
        harness = bodies[0]()
        return perf_counter() - start - harness
    gate = threading.Barrier(len(bodies) + 1)
    harness_s = [0.0] * len(bodies)
    errors: List[BaseException] = []

    def run(slot: int) -> None:
        gate.wait()
        try:
            harness_s[slot] = bodies[slot]()
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(bodies))]
    for thread in threads:
        thread.start()
    gate.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed - max(harness_s)


def _run_phase(
    workload_name: str,
    clients: int,
    trace: bool,
    loop: Callable[[int, Recorder, Tally, Dict[str, int]], float],
) -> PhaseResult:
    """One recorder, tally and counter dict per client; merged in client order."""
    recorders = [Recorder(trace, first_id=1 + c * 10_000_000) for c in range(clients)]
    tallies = [Tally(workload_name) for _ in range(clients)]
    counts = [dict.fromkeys(COUNT_NAMES, 0) for _ in range(clients)]
    wall = _run_clients([
        (lambda c=c: loop(c, recorders[c], tallies[c], counts[c])) for c in range(clients)
    ])
    total = Tally(workload_name)
    summed = dict.fromkeys(COUNT_NAMES, 0)
    for tally, count in zip(tallies, counts):
        total.absorb(tally)
        for name in COUNT_NAMES:
            summed[name] += count[name]
    return PhaseResult(merged(recorders), total, wall, summed)


# -- encode/decode pair workloads --------------------------------------------


class PairWorkload:
    """Encode then decode of seeded tensors through one entry point."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.on_cluster = name == "cluster_kv_pages"
        self.clients = client_count() if self.on_cluster else 1
        if name == "weights_fixed_qp":
            self.tile, self.targets = inputs.WEIGHT_TILE, {"qp": 18.0}
        elif name == "weights_bit_budget":
            self.tile, self.targets = inputs.WEIGHT_TILE, {"bits_per_value": 3.0}
        else:
            self.tile, self.targets = None, None  # the service's own, read on import

    def import_program(self) -> None:
        from repro.serving.ladder import DEFAULT_LADDER

        self.top_rung = DEFAULT_LADDER[0].name
        if self.on_cluster:
            import repro.cluster.router  # noqa: F401
            targets = layers.service_targets()
            self.tile = int(targets["tile"])
            self.targets = {"qp": float(targets["qp"])}
        else:
            import repro.tensor.codec  # noqa: F401

    def construct(self):
        if self.on_cluster:
            return layers.ClusterLevel()
        return layers.TensorLevel(self.tile, self.targets)

    def tensor(self, client: int, index: int) -> np.ndarray:
        if self.on_cluster:
            return inputs.kv_page(self.seed, client, index)
        return inputs.weight_tensor(self.seed, self.name, index)

    def key(self, client: int, index: int) -> str:
        return inputs.kv_session_id(client, index)

    def op_bytes(self) -> int:
        """Uncompressed bytes one op moves (for MiB/s derived from the times)."""
        return int(self.tensor(0, 0).nbytes)

    def timed_plan(self, pairs: int) -> List[List[int]]:
        return [list(range(pairs // self.clients)) for _ in range(self.clients)]

    def first_ops(self, level):
        """First encode and decode; (tally, seconds spent outside the program)."""
        tally = Tally(self.name)
        harness = run_pairs(
            self, level, 0, [FIRST_OP_INDEX], Recorder(), tally,
            dict.fromkeys(COUNT_NAMES, 0),
        )
        return tally, harness

    def run_phase(
        self,
        level,
        plan: List[List[int]],
        trace: bool = False,
        qps: Optional[Dict[str, float]] = None,
        check_values: bool = True,
    ) -> PhaseResult:
        return _run_phase(
            self.name, len(plan), trace,
            lambda client, rec, tally, counts: run_pairs(
                self, level, client, plan[client], rec, tally, counts, qps, check_values
            ),
        )


def op_id(client: int, index: int) -> str:
    return f"c{client}-{index}"


def run_pairs(
    workload: PairWorkload,
    level,
    client: int,
    indices: Sequence[int],
    rec: Recorder,
    tally: Tally,
    counts: Dict[str, int],
    qps: Optional[Dict[str, float]] = None,
    check_values: bool = True,
) -> float:
    """One client's closed loop; returns seconds spent outside the program."""
    default_qp = workload.targets.get("qp", 0.0)
    harness = 0.0
    for index in indices:
        h0 = perf_counter()
        tensor = workload.tensor(client, index)
        op = op_id(client, index)
        key = workload.key(client, index)
        qp = default_qp if qps is None else qps.get(op, default_qp)
        h1 = perf_counter()
        result = level.pair(rec, op, tensor, key, qp)
        h2 = perf_counter()
        tally.pair(
            op, tensor, result.failure, result.stored_bytes, result.restored,
            check_values,
        )
        if qps is not None and op not in qps:
            qps[op] = result.qp
        if result.rungs:
            counts["responses"] += len(result.rungs)
            counts["lower_rung"] += sum(
                1 for rung in result.rungs if rung != workload.top_rung
            )
            for hedged, hedge_won, failovers in result.flags:
                counts["hedged"] += bool(hedged)
                counts["hedge_won"] += bool(hedge_won)
                counts["failovers"] += failovers
        harness += (h1 - h0) + (perf_counter() - h2)
    return harness


# -- store workload ----------------------------------------------------------


def write_pool(path: str, pool: Sequence[bytes]) -> None:
    with open(path, "wb") as handle:
        for blob in pool:
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)


def read_pool(path: str) -> List[bytes]:
    pool = []
    with open(path, "rb") as handle:
        while True:
            head = handle.read(4)
            if not head:
                return pool
            (length,) = struct.unpack("<I", head)
            pool.append(handle.read(length))


def encode_pool(seed: int, size: int = inputs.STORE_POOL) -> List[bytes]:
    """Pre-encode the payload pool with the production codec (untimed)."""
    codec = layers.production_codec(inputs.WEIGHT_TILE)
    return [
        codec.encode(inputs.store_tensor(seed, i), qp=inputs.STORE_BLOB_QP).to_bytes()
        for i in range(size)
    ]


def populated_blob(pool: Sequence[bytes], slot: int) -> bytes:
    return inputs.envelope(pool[slot % len(pool)], GEN_POPULATE * inputs.GENERATION + slot)


def populate(level: layers.StoreLevel, pool: Sequence[bytes], keys: int) -> None:
    """Fill a single store through ``level`` (versions below any serial)."""
    for slot in range(keys):
        reason = level.put(inputs.store_key(slot), populated_blob(pool, slot), slot + 1)
        if reason is not None:
            raise RuntimeError(f"populating {level.name} store failed: {reason}")


def populate_cluster_root(root: str, pool: Sequence[bytes], keys: int) -> None:
    """Fill a four-shard root so that a router opened later can overwrite it.

    Goes through the shard door at version 0, onto the replicas the
    ring names, instead of through ``ClusterRouter.put``: a router's
    version clock starts at 1 in every process, so puts of a router
    opened over a root that an earlier router filled lose to the stored
    versions and its gets return the old bytes.  Version 0 keeps the
    benchmark clear of that (the finding is in the README).
    """
    router = layers.open_router(root)
    try:
        for slot in range(keys):
            key = inputs.store_key(slot)
            for shard_id in router.ring.replicas(key, router.config.replication):
                response = router.shard(shard_id).put(key, populated_blob(pool, slot), 0)
                if not response.ok:
                    raise RuntimeError(f"populating {shard_id} failed: {response.error}")
    finally:
        router.close()


def disk_bytes(root: str, only: Optional[str] = None) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        for name in files:
            if only is None or name == only:
                total += os.path.getsize(os.path.join(directory, name))
    return total


class StoreWorkload:
    """10 % put / 90 % get of pre-encoded blobs through the durable router."""

    name = "store_put_get"

    def __init__(self, seed: int, run_dir: str, root: str, keys: int = inputs.STORE_KEYS) -> None:
        self.seed = seed
        self.pool_dir = run_dir
        self.root = root
        self.keys = keys
        self.clients = client_count()
        self.pool = read_pool(os.path.join(run_dir, POOL_FILE))
        self.models = [StoreModel() for _ in range(self.clients)]
        for slot in range(keys):
            self.model_of(slot).ack(
                slot, populated_blob(self.pool, slot), slot % len(self.pool)
            )

    def model_of(self, slot: int) -> StoreModel:
        return self.models[slot % self.clients]

    def import_program(self) -> None:
        import repro.cluster.router  # noqa: F401

    def construct(self) -> layers.StoreLevel:
        return layers.cluster_store_level(layers.open_router(self.root))

    def first_ops(self, level: layers.StoreLevel):
        """First put and get; (tally, seconds spent outside the program)."""
        tally = Tally(self.name)
        plan = [
            inputs.StoreOp(True, 0, 0, GEN_FIRST * inputs.GENERATION),
            inputs.StoreOp(False, 0, -1, -1),
        ]
        harness = run_store_ops(self, level, 0, plan, Recorder(), tally)
        return tally, harness

    def schedule(self, ops: int, generation: int, clients: Optional[int] = None,
                 stream: Optional[int] = None):
        return inputs.store_schedule(
            self.seed, ops, clients or self.clients, generation, self.keys, stream
        )

    def run_phase(
        self,
        level: layers.StoreLevel,
        plan: List[List[inputs.StoreOp]],
        trace: bool = False,
    ) -> PhaseResult:
        if len(plan) not in (1, self.clients):
            raise ValueError("a plan has one client or the workload's client count")
        return _run_phase(
            self.name, len(plan), trace,
            lambda client, rec, tally, counts: run_store_ops(
                self, level, client, plan[client], rec, tally
            ),
        )

    def final_quality(self, level: layers.StoreLevel, tally: Tally) -> None:
        """Decode the final value of 64 keys into the nmse accumulators."""
        codec = layers.production_codec(inputs.WEIGHT_TILE)
        from repro.tensor.codec import CompressedTensor

        step = max(1, self.keys // FINAL_DECODE_KEYS)
        for slot in range(0, self.keys, step)[:FINAL_DECODE_KEYS]:
            model = self.model_of(slot)
            tally.attempted += 1
            reason, value = level.get(inputs.store_key(slot))
            if reason is None:
                reason = model.get_reason(slot, value)
            if reason is None:
                restored = codec.decode(
                    CompressedTensor.from_bytes(inputs.strip_envelope(bytes(value)))
                )
                source = inputs.store_tensor(self.seed, model.pool_of[slot])
                reason = tally.tensor_reason(source, restored)
            if reason is not None:
                tally.fail(f"final-{slot}", reason)

    def op_bytes(self) -> int:
        """Stored bytes one put or get moves."""
        return len(self.pool[0]) + inputs.ENVELOPE.size

    def live_values(self) -> int:
        return self.keys * int(np.prod(inputs.STORE_BLOB_SHAPE))

    def live_user_bytes(self) -> int:
        return sum(
            len(blob) for model in self.models for blob in model.acked.values()
        )


def run_store_ops(
    workload: StoreWorkload,
    level: layers.StoreLevel,
    client: int,
    plan: Sequence[inputs.StoreOp],
    rec: Recorder,
    tally: Tally,
) -> float:
    """One client's closed loop over its own keys; returns harness seconds.

    The model is per key owner, not per thread: a one-client plan may
    touch every key, so each op looks its model up by slot.
    """
    pool = workload.pool
    put_name, get_name = f"{level.name}.put", f"{level.name}.get"
    harness = 0.0
    for position, op in enumerate(plan):
        h0 = perf_counter()
        key = inputs.store_key(op.slot)
        model = workload.model_of(op.slot)
        name = f"c{client}-{position}"
        root = rec.reserve()
        tally.attempted += 1
        if op.put:
            pool_index = op.pool % len(pool)
            blob = inputs.envelope(pool[pool_index], op.serial)
            t0 = perf_counter()
            reason = level.put(key, blob, op.serial)
            t1 = perf_counter()
            rec.add(put_name, name, t0, t1, root)
            rec.sample("write", t1 - t0)
            if reason is None:
                model.ack(op.slot, blob, pool_index)
        else:
            t0 = perf_counter()
            reason, value = level.get(key)
            t1 = perf_counter()
            rec.add(get_name, name, t0, t1, root)
            rec.sample("read", t1 - t0)
            if reason is None:
                reason = model.get_reason(op.slot, value)
        rec.add_root(root, "store.op", name, t0, t1)
        if reason is not None:
            tally.fail(name, reason)
        harness += (t0 - h0) + (perf_counter() - t1)
    return harness


def make_workload(name: str, seed: int, run_dir: str, root: str):
    if name == StoreWorkload.name:
        return StoreWorkload(seed, run_dir, root)
    return PairWorkload(name, seed)
