"""Ring all-reduce simulation with byte-accurate link accounting.

The cluster model (Figure 16) charges data parallelism
``2 (p-1)/p * payload`` per GPU -- the textbook cost of ring
all-reduce.  This module *runs* that algorithm over simulated links so
the constant is derived, not asserted: reduce-scatter then all-gather,
one segment per step, with optional lossy compression applied to every
transmitted segment (how LLM.265 would sit inside a collective).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

import repro.telemetry as telemetry
from repro.distributed.comm import Channel, Compressor


@dataclass
class AllReduceResult:
    """Outcome of one simulated collective."""

    reduced: List[np.ndarray]  # per-worker result (identical if lossless)
    bytes_per_worker: float
    steps: int

    @property
    def textbook_bytes(self) -> float:
        """What the 2(p-1)/p formula predicts for this payload."""
        size = self.reduced[0].size * 2.0  # FP16 reference bytes
        workers = len(self.reduced)
        return 2.0 * (workers - 1) / workers * size


def ring_allreduce(
    tensors: Sequence[np.ndarray],
    compressor: Optional[Compressor] = None,
    average: bool = True,
) -> AllReduceResult:
    """Run ring all-reduce over per-worker tensors.

    ``tensors`` holds each worker's contribution (same shape).  Every
    hop crosses a :class:`Channel` with the given compressor, so lossy
    collectives (and their accumulated error) can be studied directly.
    """
    workers = len(tensors)
    if workers < 2:
        raise ValueError("ring all-reduce needs at least two workers")
    shape = np.asarray(tensors[0]).shape
    for tensor in tensors:
        if np.asarray(tensor).shape != shape:
            raise ValueError("all workers must contribute the same shape")

    with telemetry.span("distributed.allreduce"):
        return _ring_allreduce(tensors, compressor, average, workers, shape)


def _ring_allreduce(
    tensors: Sequence[np.ndarray],
    compressor: Optional[Compressor],
    average: bool,
    workers: int,
    shape,
) -> AllReduceResult:
    flat = [np.asarray(t, dtype=np.float64).reshape(-1).copy() for t in tensors]
    segments = np.array_split(np.arange(flat[0].size), workers)
    links = [Channel(compressor) for _ in range(workers)]  # link w -> w+1
    steps = 0

    # Phase 1: reduce-scatter.  After step s, worker w owns the partial
    # sum of segment (w - s) over s+1 contributions.
    for step in range(workers - 1):
        sends = []
        for worker in range(workers):
            segment = segments[(worker - step) % workers]
            sends.append(
                links[worker].send(flat[worker][segment], step=steps, tag="rs")
            )
        for worker in range(workers):
            source = (worker - 1) % workers
            segment = segments[(worker - 1 - step) % workers]
            flat[worker][segment] += sends[source]
        steps += 1

    # Phase 2: all-gather the finished segments around the ring.
    for step in range(workers - 1):
        sends = []
        for worker in range(workers):
            segment = segments[(worker + 1 - step) % workers]
            sends.append(
                links[worker].send(flat[worker][segment], step=steps, tag="ag")
            )
        for worker in range(workers):
            source = (worker - 1) % workers
            segment = segments[(worker - step) % workers]
            flat[worker][segment] = sends[source]
        steps += 1

    if average:
        for worker in range(workers):
            flat[worker] /= workers

    return AllReduceResult(
        reduced=[f.reshape(shape) for f in flat],
        bytes_per_worker=links[0].total_compressed_bytes,
        steps=steps,
    )
