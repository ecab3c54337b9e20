"""Communication channels and tensor compressors with bit accounting.

A :class:`Channel` models one inter-GPU link: ``send`` runs the
attached compressor and returns what the *receiver* reconstructs, while
tallying raw vs compressed traffic.  Compressors implement
``compress(tensor, step) -> (restored, bits_per_value)``.

The link itself is reliable: the paper's training figures plot
communication volume and convergence, so a channel is a compressor plus
a traffic ledger and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.parallel import ParallelConfig
from repro.quant.rtn import rtn_roundtrip
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
    """One transmission's bookkeeping."""

    tag: str
    step: int
    num_values: int
    bits_per_value: float

    @property
    def compressed_bytes(self) -> float:
        return self.num_values * self.bits_per_value / 8.0

    @property
    def raw_bytes(self) -> float:
        return self.num_values * 2.0  # FP16 reference


@dataclass
class Channel:
    """One simulated link with an optional compressor."""

    compressor: Optional[Compressor] = None
    records: List[TrafficRecord] = field(default_factory=list)

    def send(self, tensor: np.ndarray, step: int = 0, tag: str = "") -> np.ndarray:
        """Transmit; returns the receiver-side tensor."""
        tensor = np.asarray(tensor, dtype=np.float64)
        if self.compressor is None:
            restored, bits = tensor, 16.0
        else:
            restored, bits = self.compressor.compress(tensor, step)
        self.records.append(
            TrafficRecord(tag=tag, step=step, num_values=tensor.size, bits_per_value=bits)
        )
        return restored

    @property
    def total_raw_bytes(self) -> float:
        return sum(r.raw_bytes for r in self.records)

    @property
    def total_compressed_bytes(self) -> float:
        return sum(r.compressed_bytes for r in self.records)

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
