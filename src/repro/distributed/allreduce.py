"""Ring all-reduce simulation with byte-accurate link accounting.

The cluster model (Figure 16) charges data parallelism
``2 (p-1)/p * payload`` per GPU -- the textbook cost of ring
all-reduce.  This module *runs* that algorithm over simulated links so
the constant is derived, not asserted: reduce-scatter then all-gather,
one segment per step, with optional lossy compression applied to every
transmitted segment (how LLM.265 would sit inside a collective).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

import repro.telemetry as telemetry
from repro.distributed.comm import Channel, Compressor
from repro.resilience.faults import FaultInjector, RetryPolicy


@dataclass
class AllReduceResult:
    """Outcome of one simulated collective."""

    reduced: List[np.ndarray]  # per-worker result (identical if lossless)
    bytes_per_worker: float
    steps: int
    #: Retransmissions across *all* links (0 on a fault-free fabric).
    retransmissions: int = 0
    retransmitted_bytes: float = 0.0

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
    fault_injector: Optional[FaultInjector] = None,
    retry: Optional[RetryPolicy] = None,
) -> AllReduceResult:
    """Run ring all-reduce over per-worker tensors.

    ``tensors`` holds each worker's contribution (same shape).  Every
    hop crosses a :class:`Channel` with the given compressor, so lossy
    collectives (and their accumulated error) can be studied directly.

    With a ``fault_injector``, every hop also crosses the faulty wire:
    damaged segments are detected by the CRC framing and retransmitted
    (bounded by ``retry``), so the collective's *result* is identical
    to the fault-free run -- only the byte bill grows.  Exhausted
    retries surface as :class:`~repro.resilience.errors.TransportError`.
    """
    workers = len(tensors)
    if workers < 2:
        raise ValueError("ring all-reduce needs at least two workers")
    shape = np.asarray(tensors[0]).shape
    for tensor in tensors:
        if np.asarray(tensor).shape != shape:
            raise ValueError("all workers must contribute the same shape")

    with telemetry.span("distributed.allreduce"):
        return _ring_allreduce(
            tensors, compressor, average, workers, shape, fault_injector, retry
        )


def _ring_allreduce(
    tensors: Sequence[np.ndarray],
    compressor: Optional[Compressor],
    average: bool,
    workers: int,
    shape,
    fault_injector: Optional[FaultInjector] = None,
    retry: Optional[RetryPolicy] = None,
) -> AllReduceResult:
    flat = [np.asarray(t, dtype=np.float64).reshape(-1).copy() for t in tensors]
    segments = np.array_split(np.arange(flat[0].size), workers)
    links = [  # link w -> w+1; all links share one injector (one fabric)
        Channel(
            compressor,
            fault_injector=fault_injector,
            retry=retry or RetryPolicy(),
        )
        for _ in range(workers)
    ]
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

    bytes_per_worker = links[0].total_compressed_bytes
    retransmissions = sum(link.total_retries for link in links)
    retransmitted_bytes = sum(link.total_retransmitted_bytes for link in links)
    registry = telemetry.current()
    if registry is not None and retransmissions:
        registry.count("allreduce.retransmissions", retransmissions)
    return AllReduceResult(
        reduced=[f.reshape(shape) for f in flat],
        bytes_per_worker=bytes_per_worker,
        steps=steps,
        retransmissions=retransmissions,
        retransmitted_bytes=retransmitted_bytes,
    )
