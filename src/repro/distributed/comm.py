"""Communication channels and tensor compressors with bit accounting.

A :class:`Channel` models one inter-GPU link: ``send`` runs the
attached compressor and returns what the *receiver* reconstructs, while
tallying raw vs compressed traffic.  Compressors implement
``compress(tensor, step) -> (restored, bits_per_value)``.

With a :class:`~repro.resilience.faults.FaultInjector` attached, the
channel becomes a *self-healing* link: the payload crosses the wire as
CRC32-framed chunks, the receiver verifies every chunk, and damaged or
dropped transmissions are retransmitted under a bounded
exponential-backoff :class:`~repro.resilience.faults.RetryPolicy`.
Retransmitted bytes are charged to the traffic ledger (they are real
traffic), and exhausting the retry budget raises
:class:`~repro.resilience.errors.TransportError` -- which higher layers
(data-parallel skip-and-compensate, pipeline slow-path) degrade around.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.parallel import ParallelConfig
from repro.quant.rtn import rtn_roundtrip
from repro.resilience.errors import CorruptStreamError, TransportError
from repro.resilience.faults import FaultInjector, RetryPolicy
from repro.resilience.framing import deframe_payload, frame_payload
from repro.tensor.codec import TensorCodec
from repro.tensor.residual import ResidualGradientCompressor


class Compressor(Protocol):
    """Lossy (or identity) transform standing in for encode+transmit+decode."""

    def compress(self, tensor: np.ndarray, step: int) -> Tuple[np.ndarray, float]:
        """Return (receiver-side tensor, bits communicated per value)."""
        ...


class IdentityCompressor:
    """Uncompressed FP16 transmission (the paper's baseline)."""

    def __init__(self, bits: float = 16.0) -> None:
        self.bits = bits

    def compress(self, tensor: np.ndarray, step: int) -> Tuple[np.ndarray, float]:
        return tensor, self.bits


class RTNCompressor:
    """Group-wise RTN quantized transmission."""

    def __init__(self, bits: int, group_size: int = 128, symmetric: bool = True) -> None:
        self.bits = bits
        self.group_size = group_size
        self.symmetric = symmetric

    def compress(self, tensor: np.ndarray, step: int) -> Tuple[np.ndarray, float]:
        restored = rtn_roundtrip(
            tensor, self.bits, symmetric=self.symmetric, group_size=self.group_size
        )
        overhead = 16.0 * (2 if not self.symmetric else 1) / self.group_size
        return restored, self.bits + overhead


class CodecCompressor:
    """LLM.265 transmission: video-codec compress, send, decompress.

    The fractional bitrate search is expensive, so the QP found on the
    first call (per tensor shape) is reused and refreshed every
    ``refresh_every`` steps -- mirroring how a deployment would pin
    NVENC rate-control state between identical-shape tensors.
    """

    def __init__(
        self,
        bits_per_value: float = 3.5,
        codec: Optional[TensorCodec] = None,
        refresh_every: int = 50,
        parallel: Optional[ParallelConfig] = None,
    ) -> None:
        self.codec = codec or TensorCodec(tile=128, parallel=parallel)
        self.bits_per_value = bits_per_value
        self.refresh_every = refresh_every
        self._qp_cache: Dict[Tuple[int, ...], Tuple[float, int]] = {}

    def compress(self, tensor: np.ndarray, step: int) -> Tuple[np.ndarray, float]:
        key = tuple(np.asarray(tensor).shape)
        cached = self._qp_cache.get(key)
        compressed = None
        if cached is not None and step - cached[1] < self.refresh_every:
            compressed = self.codec.encode(tensor, qp=cached[0])
            # Tensor statistics drift during training; re-search when the
            # pinned QP misses the budget by more than ~25%.
            if not (
                0.6 * self.bits_per_value
                <= compressed.bits_per_value
                <= 1.25 * self.bits_per_value
            ):
                compressed = None
        if compressed is None:
            compressed = self.codec.encode(tensor, bits_per_value=self.bits_per_value)
            self._qp_cache[key] = (compressed.qp, step)
        return self.codec.decode(compressed), compressed.bits_per_value


class ErrorFeedbackCompressor:
    """Error feedback around any lossy compressor (extension).

    The compression error of step ``t`` is added back to the tensor at
    step ``t+1`` (the memory mechanism of 1-bit Adam / EF-SGD), which
    turns a biased low-bit compressor into an unbiased-in-the-limit
    one.  Not part of the paper's LLM.265 recipe -- included as the
    natural upgrade path for very low bit budgets.
    """

    def __init__(self, inner: Compressor) -> None:
        self.inner = inner
        self._error: Dict[Tuple[int, ...], np.ndarray] = {}

    def compress(self, tensor: np.ndarray, step: int) -> Tuple[np.ndarray, float]:
        tensor = np.asarray(tensor, dtype=np.float64)
        key = tuple(tensor.shape)
        carried = self._error.get(key)
        adjusted = tensor + carried if carried is not None else tensor
        restored, bits = self.inner.compress(adjusted, step)
        self._error[key] = adjusted - restored
        return restored, bits


class ResidualCompressor:
    """LLM.265 + residual compensation for gradients (Section 5.1)."""

    def __init__(self, inner: Optional[ResidualGradientCompressor] = None) -> None:
        self.inner = inner or ResidualGradientCompressor()

    def compress(self, tensor: np.ndarray, step: int) -> Tuple[np.ndarray, float]:
        restored = self.inner.compress(tensor, step)
        return restored, self.inner.history[-1].total_bits


@dataclass
class TrafficRecord:
    """One transmission's bookkeeping.

    The resilience fields default to the fault-free values, so ledgers
    from reliable links are byte-for-byte what they always were; only
    an injected fault makes ``retries``/``retransmitted_bytes``
    nonzero.
    """

    tag: str
    step: int
    num_values: int
    bits_per_value: float
    retries: int = 0
    retransmitted_bytes: float = 0.0
    backoff_s: float = 0.0  # simulated retry backoff (not slept)
    delay_s: float = 0.0  # simulated straggler delay
    delivered: bool = True  # False when retries ran out (TransportError)

    @property
    def compressed_bytes(self) -> float:
        return self.num_values * self.bits_per_value / 8.0 + self.retransmitted_bytes

    @property
    def raw_bytes(self) -> float:
        return self.num_values * 2.0  # FP16 reference


@dataclass
class Channel:
    """One simulated link with an optional compressor.

    ``fault_injector`` switches on the verify-and-retransmit wire
    protocol; without one, ``send`` is the original reliable fast path.
    """

    compressor: Optional[Compressor] = None
    records: List[TrafficRecord] = field(default_factory=list)
    fault_injector: Optional[FaultInjector] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    wire_chunk_bytes: int = 4096

    def send(self, tensor: np.ndarray, step: int = 0, tag: str = "") -> np.ndarray:
        """Transmit; returns the receiver-side tensor.

        Raises :class:`TransportError` when a fault injector is
        attached and the bounded retries are exhausted; the failed
        attempt still appears in the ledger (``delivered=False``) --
        those bytes crossed the wire even though they never arrived.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        if self.compressor is None:
            restored, bits = tensor, 16.0
        else:
            restored, bits = self.compressor.compress(tensor, step)
        record = TrafficRecord(
            tag=tag, step=step, num_values=tensor.size, bits_per_value=bits
        )
        registry = telemetry.current()
        try:
            if self.fault_injector is not None:
                restored = self._transmit(restored, record, registry)
        finally:
            self.records.append(record)
        return restored

    # -- self-healing wire protocol ------------------------------------

    def _wire_pack(self, tensor: np.ndarray) -> bytes:
        """Receiver-bound bytes: self-describing header + CRC framing."""
        header = struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape)
        return frame_payload(header + tensor.tobytes(), self.wire_chunk_bytes)

    @staticmethod
    def _wire_unpack(body: bytes) -> np.ndarray:
        ndim = body[0]
        shape = struct.unpack_from(f"<{ndim}I", body, 1) if ndim else ()
        offset = 1 + 4 * ndim
        return np.frombuffer(body[offset:], dtype=np.float64).reshape(shape).copy()

    def _transmit(
        self, tensor: np.ndarray, record: TrafficRecord, registry
    ) -> np.ndarray:
        """Verify-and-retransmit loop over the faulty wire."""
        injector = self.fault_injector
        wire = self._wire_pack(tensor)
        # Retransmissions are charged at the *compressed* rate the
        # ledger accounts in, so totals stay in one unit system.
        attempt_bytes = record.num_values * record.bits_per_value / 8.0
        record.delay_s += injector.straggler_delay()
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                record.retries += 1
                record.retransmitted_bytes += attempt_bytes
                backoff = self.retry.backoff_s(attempt)
                record.backoff_s += backoff
                if registry is not None:
                    registry.count("comm.retransmits")
                    registry.count("comm.retransmitted_bytes", attempt_bytes)
            received = injector.corrupt(wire)
            if received is None:
                if registry is not None:
                    registry.count("comm.drops")
                continue
            try:
                body = deframe_payload(received)
            except CorruptStreamError:
                continue
            return self._wire_unpack(body)
        record.delivered = False
        raise TransportError(
            f"link lost {record.tag or 'payload'!r} at step {record.step} "
            f"after {self.retry.max_retries + 1} attempts"
        )

    @property
    def total_raw_bytes(self) -> float:
        return sum(r.raw_bytes for r in self.records)

    @property
    def total_compressed_bytes(self) -> float:
        return sum(r.compressed_bytes for r in self.records)

    @property
    def total_retransmitted_bytes(self) -> float:
        return sum(r.retransmitted_bytes for r in self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def average_bits_per_value(self) -> float:
        total_values = sum(r.num_values for r in self.records)
        if not total_values:
            return 0.0
        total_bits = sum(r.num_values * r.bits_per_value for r in self.records)
        return total_bits / total_values

    @property
    def compression_ratio(self) -> float:
        compressed = self.total_compressed_bytes
        return self.total_raw_bytes / compressed if compressed else 1.0
