"""The traced run: spans at every entry point and the per-layer metrics.

One client replays 25 % of the workload's schedule at the workload's
own entry point and then at each entry point beneath it, with the
benchmark's spans on and ``repro.telemetry`` off; layer times and self
times come from those passes.  ``repro.telemetry`` is switched on for
one extra pass, only to copy counters the program already keeps and to
price it (``telemetry.overhead_share``).  Layers the workload does not
pass through are measured on a small standard probe (KV pages for the
encode ladder, a 64-key store for the store ladder), so every traced
run reports a measured number for every layer.
"""

from __future__ import annotations

import os
import shutil
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

import layers
import machine
import workloads
from spans import median_ms, tail_ms, write_trace
from workloads import PairWorkload, PhaseResult, StoreWorkload

#: Probe sizes (pairs, store ops) of a gated run and of a ``--smoke`` run.
PROBE_PAIRS = {False: 24, True: 8}
PROBE_STORE_OPS = {False: 600, True: 200}
TRACED_OPS_FLOOR = {False: 4, True: 2}
PROBE_STORE_KEYS = 64
PROBE_POOL = 8
RECOVER_ROUNDS = 2
PHASE_ID_STRIDE = 100_000_000


class FsyncProbe:
    """Counts and times ``os.fsync`` while active (traced runs only)."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._lock = threading.Lock()
        self._real: Optional[Callable] = None

    def __enter__(self) -> "FsyncProbe":
        self._real = os.fsync
        os.fsync = self._timed
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real

    def _timed(self, fd) -> None:
        start = perf_counter()
        self._real(fd)
        elapsed = perf_counter() - start
        with self._lock:
            self.calls += 1
            self.seconds += elapsed


class SpanSink:
    """Collects the spans of every phase under unique ids."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._phases = 0

    def take(self, label: str, result: PhaseResult) -> None:
        offset = self._phases * PHASE_ID_STRIDE
        self._phases += 1
        for span in result.recorder.spans:
            self.spans.append(
                dict(
                    span,
                    id=span["id"] + offset,
                    parent=span["parent"] + offset if span["parent"] else 0,
                    phase=label,
                )
            )


def _p50(result: PhaseResult, name: str) -> float:
    return median_ms(result.recorder.samples[name])


def _ops_per_s(result: PhaseResult) -> float:
    return (result.tally.attempted - result.tally.failed) / result.wall_s


# -- encode/decode ladder -----------------------------------------------------


def encode_ladder(
    workload: PairWorkload, indices: List[int], sink: SpanSink, tallies: list
) -> Dict[str, float]:
    """Replay ``indices`` (client 0) at every level from the workload's top down.

    Layer times come from passes with the benchmark's spans on and
    ``repro.telemetry`` off.  Telemetry is switched on for one extra
    pass over the first half of the ops at the tensor level (to copy
    the encoder-run and tile counters) and at the top level (to price
    it: ``telemetry.overhead_share``).
    """
    from repro.parallel import pool_stats

    metrics: Dict[str, float] = {}
    plan = [indices]
    counted = [indices[: max(1, len(indices) // 2)]]
    ops = 2 * len(indices)
    qps: Dict[str, float] = {}
    label = workload.name

    def spans_only(level, **kwargs) -> PhaseResult:
        result = workload.run_phase(level, plan, trace=True, **kwargs)
        sink.take(f"{label}/{level.name}", result)
        tallies.append(result.tally)
        return result

    def with_telemetry(level, plain: PhaseResult) -> Dict[str, float]:
        """Counters of a telemetry-on pass; records what it cost."""
        import repro.telemetry as telemetry

        with telemetry.session() as registry:
            result = workload.run_phase(level, counted)
            counters = dict(registry.counters)
        tallies.append(result.tally)
        same_ops = len(counted[0])
        metrics["telemetry.overhead_share"] = (
            _p50(result, "write") + _p50(result, "read")
        ) / (
            median_ms(plain.recorder.samples["write"][:same_ops])
            + median_ms(plain.recorder.samples["read"][:same_ops])
        ) - 1.0
        return counters

    # tensor level first: it fixes the QP the codec level replays at
    tensor_level = layers.TensorLevel(workload.tile, workload.targets)
    before = pool_stats()
    tensor = spans_only(tensor_level, qps=qps)
    after = pool_stats()
    counters = with_telemetry(tensor_level, tensor)
    encodes = max(1.0, counters.get("tensor.encodes", 0.0))
    metrics["tensor.encode_ms"] = _p50(tensor, "tensor.encode")
    metrics["tensor.decode_ms"] = _p50(tensor, "tensor.decode")
    metrics["tensor.container_ms"] = _p50(tensor, "tensor.to_bytes") + _p50(
        tensor, "tensor.from_bytes"
    )
    metrics["tensor.encoder_runs_per_encode"] = counters.get("tensor.encoder_runs", 0.0) / encodes
    metrics["tensor.tiles_per_encode"] = counters.get("tensor.tiles", 0.0) / encodes
    metrics["parallel.dispatches_per_op"] = (after["dispatches"] - before["dispatches"]) / ops
    metrics["parallel.serial_fallbacks_per_op"] = (
        after["serial_fallbacks"] - before["serial_fallbacks"]
    ) / ops

    serial_level = layers.TensorLevel(workload.tile, workload.targets, serial=True)
    serial = workload.run_phase(serial_level, plan)
    tallies.append(serial.tally)
    metrics["parallel.speedup_x"] = (_p50(serial, "write") + _p50(serial, "read")) / (
        _p50(tensor, "write") + _p50(tensor, "read")
    )

    codec = spans_only(layers.CodecLevel(workload.tile), qps=qps, check_values=False)
    metrics["codec.encode_frames_ms"] = _p50(codec, "codec.encode_frames")
    metrics["codec.decode_frames_ms"] = _p50(codec, "codec.decode_frames")
    metrics["codec.stream_bytes_per_op"] = codec.tally.stored_bits / 8.0 / max(1, len(indices))
    metrics["tensor.self_encode_ms"] = (
        metrics["tensor.encode_ms"] - metrics["codec.encode_frames_ms"]
    )
    if not workload.on_cluster:
        metrics.update(_tail(tensor))
        return metrics

    serving_level = layers.ServingLevel()
    serving = spans_only(serving_level)
    responses = max(1, serving.counts["responses"])
    metrics["serving.encode_ms"] = _p50(serving, "serving.encode")
    metrics["serving.decode_ms"] = _p50(serving, "serving.decode")
    metrics["serving.self_encode_ms"] = metrics["serving.encode_ms"] - metrics["tensor.encode_ms"]
    metrics["serving.self_decode_ms"] = metrics["serving.decode_ms"] - metrics["tensor.decode_ms"]
    metrics["serving.retries_per_op"] = serving_level.service.slo.snapshot()["retries"] / responses
    metrics["serving.lower_rung_share"] = serving.counts["lower_rung"] / responses

    cluster_level = layers.ClusterLevel()
    try:
        cluster = spans_only(cluster_level)
        responses = max(1, cluster.counts["responses"])
        metrics["cluster.encode_ms"] = _p50(cluster, "cluster.encode")
        metrics["cluster.decode_ms"] = _p50(cluster, "cluster.decode")
        metrics["cluster.self_encode_ms"] = metrics["cluster.encode_ms"] - metrics["serving.encode_ms"]
        metrics["cluster.self_decode_ms"] = metrics["cluster.decode_ms"] - metrics["serving.decode_ms"]
        metrics["cluster.hedged_share"] = cluster.counts["hedged"] / responses
        metrics["cluster.hedge_won_share"] = cluster.counts["hedge_won"] / responses
        metrics["cluster.failovers_per_op"] = cluster.counts["failovers"] / responses
        metrics.update(_tail(cluster))
        with_telemetry(cluster_level, cluster)
        if workloads.client_count() > 1:
            half = len(indices) // 2
            both = workload.run_phase(cluster_level, [indices[:half], indices[:half]])
            tallies.append(both.tally)
            metrics["cluster.concurrency_x"] = _ops_per_s(both) / _ops_per_s(cluster)
        else:
            metrics["cluster.concurrency_x"] = 1.0
    finally:
        cluster_level.close()
    return metrics


def _tail(result: PhaseResult) -> Dict[str, float]:
    write_p, write_tail = tail_ms(result.recorder.samples["write"])
    _, read_tail = tail_ms(result.recorder.samples["read"])
    return {"tail.write_ms": write_tail, "tail.read_ms": read_tail,
            "tail.percentile": write_p}


# -- store ladder ---------------------------------------------------------------


def store_ladder(
    workload: StoreWorkload,
    scratch: str,
    ops: int,
    sink: SpanSink,
    tallies: list,
    label: str,
) -> Dict[str, float]:
    """Replay one schedule at router, shard and bare-store level.

    ``workload.root`` holds a populated four-shard store that no router
    has open; the two lower levels get fresh single stores under
    ``scratch`` populated with the same keys.
    """
    import repro.telemetry as telemetry
    from repro.cluster.store import ShardStore

    metrics: Dict[str, float] = {}
    generation = workloads.GEN_TRACE
    seed, keys, cluster_root = workload.seed, workload.keys, workload.root

    recover = []
    for _ in range(RECOVER_ROUNDS):
        for shard in sorted(os.listdir(cluster_root)):
            start = perf_counter()
            store = ShardStore(os.path.join(cluster_root, shard), fsync=True)
            recover.append(perf_counter() - start)
            store.close()
    metrics["store.recover_ms"] = median_ms(recover)

    def schedule(workload: StoreWorkload, offset: int, clients: int = 1, stream: int = 50):
        return workload.schedule(ops, generation + offset, clients, stream)

    level = workload.construct()
    try:
        journal_before = workloads.disk_bytes(cluster_root, "journal.log")
        plain = workload.run_phase(level, schedule(workload, 0), trace=True)
        sink.take(f"{label}/cluster", plain)
        tallies.append(plain.tally)
        puts = max(1, len(plain.recorder.samples["cluster.put"]))
        metrics["cluster.put_ms"] = _p50(plain, "cluster.put")
        metrics["cluster.get_ms"] = _p50(plain, "cluster.get")
        metrics["store.journal_bytes_per_put"] = (
            workloads.disk_bytes(cluster_root, "journal.log") - journal_before
        ) / puts
        metrics.update(_tail(plain))

        # same draw under fresh serials, with telemetry on and os.fsync wrapped
        with FsyncProbe() as fsync, telemetry.session():
            counted = workload.run_phase(level, schedule(workload, 1))
        tallies.append(counted.tally)
        metrics["device.fsync_calls_per_put"] = fsync.calls / puts
        metrics["device.fsync_ms_per_put"] = 1e3 * fsync.seconds / puts
        metrics["telemetry.overhead_share"] = (
            _p50(counted, "write") + _p50(counted, "read")
        ) / (_p50(plain, "write") + _p50(plain, "read")) - 1.0
        if workload.clients > 1:
            both = workload.run_phase(
                level, schedule(workload, 2, clients=workload.clients, stream=51)
            )
            tallies.append(both.tally)
            metrics["cluster.concurrency_x"] = _ops_per_s(both) / _ops_per_s(plain)
        else:
            metrics["cluster.concurrency_x"] = 1.0
        metrics["store.disk_bytes_per_user_byte"] = (
            workloads.disk_bytes(cluster_root) / workload.live_user_bytes()
        )
    finally:
        level.close()

    for name, opener in (("shard", layers.shard_store_level), ("store", layers.bare_store_level)):
        directory = os.path.join(scratch, f"{label}-{name}")
        os.makedirs(directory)
        single = StoreWorkload(seed, workload.pool_dir, directory, keys)
        lower = opener(directory)
        try:
            workloads.populate(lower, single.pool, keys)
            result = single.run_phase(lower, schedule(single, 3), trace=True)
        finally:
            lower.close()
        sink.take(f"{label}/{name}", result)
        tallies.append(result.tally)
        metrics[f"{name}.put_ms"] = _p50(result, f"{name}.put")
        if name == "store":
            metrics["store.get_ms"] = _p50(result, "store.get")
        shutil.rmtree(directory)
    metrics["cluster.self_put_ms"] = metrics["cluster.put_ms"] - metrics["shard.put_ms"]
    return metrics


def probe_store_workload(seed: int, scratch: str) -> StoreWorkload:
    """A small populated cluster root (and its pool) for the store probe."""
    pool_dir = os.path.join(scratch, "probe-pool")
    root = os.path.join(scratch, "probe-root")
    os.makedirs(pool_dir)
    os.makedirs(root)
    pool = workloads.encode_pool(seed, PROBE_POOL)
    workloads.write_pool(os.path.join(pool_dir, workloads.POOL_FILE), pool)
    workloads.populate_cluster_root(root, pool, PROBE_STORE_KEYS)
    return StoreWorkload(seed, pool_dir, root, PROBE_STORE_KEYS)


# -- the role --------------------------------------------------------------------


def run(workload, setup: Dict[str, float], ops: int, run_dir: str, header: dict,
        smoke: bool = False):
    """All per-layer metrics of one workload; returns (metrics, tallies)."""
    sink = SpanSink()
    tallies: list = []
    calib = machine.calib_samples()
    metrics: Dict[str, float] = {}
    seed = workload.seed
    scratch = os.path.join(run_dir, "trace-scratch")
    os.makedirs(scratch)
    traced_ops = max(
        TRACED_OPS_FLOOR[smoke],
        int(round(ops * workloads.TRACE_SHARE)),
    )
    probe_pairs = list(range(PROBE_PAIRS[smoke]))

    def kv_probe() -> Dict[str, float]:
        probe = PairWorkload("cluster_kv_pages", seed)
        probe.import_program()
        return encode_ladder(probe, probe_pairs, sink, tallies)

    if isinstance(workload, StoreWorkload):
        metrics.update(kv_probe())
        metrics.update(
            store_ladder(workload, scratch, traced_ops, sink, tallies, workload.name)
        )
    else:
        if not workload.on_cluster:
            metrics.update(kv_probe())
        metrics.update(encode_ladder(workload, list(range(traced_ops)), sink, tallies))
        probed = store_ladder(
            probe_store_workload(seed, scratch), scratch, PROBE_STORE_OPS[smoke],
            sink, tallies, "probe_store",
        )
        # concurrency, overhead and tail belong to the encode ladder here
        for name in ("cluster.concurrency_x", "telemetry.overhead_share",
                     "tail.write_ms", "tail.read_ms", "tail.percentile"):
            probed.pop(name)
        metrics.update(probed)

    calib += machine.calib_samples()
    metrics["machine.calib_ms"] = median_ms(calib)
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.construct_s"] = setup["construct_s"]
    metrics["setup.first_op_s"] = setup["first_op_s"]
    metrics["codec.kernels_ready"] = float(
        sum(1 for state in header["kernels"].values() if state == "ready")
    )
    write_trace(os.path.join(run_dir, "trace.json"), sink.spans, header)
    shutil.rmtree(scratch)
    return metrics, tallies
