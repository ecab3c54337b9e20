"""Per-encode instrumentation ledger for the frame codec.

One :class:`EncodeStats` is created per :meth:`FrameEncoder.encode`
call *when telemetry is enabled* and travels with the resulting
:class:`~repro.codec.encoder.EncodeResult`.  It holds the exact
per-syntax-element bit split of that one bitstream -- measured with
:meth:`BinaryEncoder.tell_bits` deltas, so the classes plus ``header``
and ``flush`` always sum to ``8 * len(data)`` exactly -- alongside
stage timings and structural counters.

Keeping the ledger per-encode (rather than only in the global
registry) matters because rate control runs the encoder many times;
the ledger of the *returned* encode describes the bytes that actually
ship, while the registry aggregates every attempt.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.core import Registry

__all__ = ["BIT_CLASSES", "DecodeStats", "EncodeStats"]

#: Stable syntax-element bit classes, in stream order.  ``header`` is
#: the fixed stream header, ``slice_hdr`` the per-slice CRC32 framing
#: (length + checksum, 8 bytes per frame), ``flush`` the per-slice
#: arithmetic-coder termination residue; the rest are CABAC-coded
#: element families.
BIT_CLASSES = (
    "header",
    "slice_hdr",
    "split",
    "pred_flag",
    "intra_mode",
    "mv",
    "cbf",
    "last",
    "sig",
    "level",
    "flush",
)


class EncodeStats:
    """Mutable ledger the encoder fills in while writing one stream."""

    __slots__ = ("bits", "counts", "seconds", "qp_values")

    def __init__(self) -> None:
        self.bits: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.qp_values: List[int] = []

    # -- recording -----------------------------------------------------

    def add_bits(self, element: str, bits: int) -> None:
        self.bits[element] = self.bits.get(element, 0) + bits

    def add_count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_seconds(self, stage: str, seconds: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds

    def add_qp(self, qp: int) -> None:
        self.qp_values.append(qp)

    def merge(self, other: "EncodeStats") -> None:
        """Fold another ledger into this one (parallel slice workers).

        Slice-parallel encoding gives each worker its own ledger (the
        telemetry registry is thread-local and absent in workers); the
        session merges them back in frame order, so bit totals still
        telescope exactly and the QP sequence matches the serial path.
        Stage ``seconds`` become summed *CPU* time across workers --
        they no longer bound wall-clock time under parallelism.
        """
        for element, bits in other.bits.items():
            self.add_bits(element, bits)
        for name, value in other.counts.items():
            self.add_count(name, value)
        for stage, seconds in other.seconds.items():
            self.add_seconds(stage, seconds)
        self.qp_values.extend(other.qp_values)

    # -- consuming -----------------------------------------------------

    @property
    def total_bits(self) -> int:
        return sum(self.bits.values())

    def as_dict(self) -> dict:
        """Plain-data snapshot (what rides on ``EncodeResult.stats``)."""
        qp = self.qp_values
        return {
            "bits": dict(self.bits),
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "qp": {
                "count": len(qp),
                "min": min(qp) if qp else 0,
                "max": max(qp) if qp else 0,
                "mean": (sum(qp) / len(qp)) if qp else 0.0,
            },
        }

    def publish(self, registry: Optional[Registry]) -> None:
        """Merge this ledger into a registry's ``encode.*`` aggregates."""
        if registry is None:
            return
        for element, bits in self.bits.items():
            registry.count(f"encode.bits.{element}", bits)
        for name, value in self.counts.items():
            registry.count(f"encode.{name}", value)
        for stage, seconds in self.seconds.items():
            registry.count(f"encode.seconds.{stage}", seconds)
        for qp in self.qp_values:
            registry.observe("encode.qp", qp)


#: Stage names of the default decoder, in pipeline order.
DECODE_STAGES = ("entropy", "reconstruct")


class DecodeStats:
    """Per-decode ledger: stage timings + structural counters.

    The decode-side sibling of :class:`EncodeStats`, filled by
    :class:`~repro.codec.decoder.FrameDecoder` (kernels or twin): wall
    seconds per whole-slice stage (``entropy`` -- draining the range
    decoder into the leaf plan, ``reconstruct`` -- every leaf's
    residual, prediction, add and clip in decode order) and counters:
    ``coeff_bins`` consumed by the coefficient scan, and the structural
    ``ctu`` / ``cu.leaf`` / ``cu.split`` / ``mode.intra`` /
    ``mode.inter`` derived from each slice's finished plan.  Slice
    workers return theirs with the samples and the dispatcher merges
    them, so the published ledger is the same serial or fanned out.
    The structural counts are the encoder's: ``decode.<name>`` equals
    the ``encode.<name>`` its :class:`EncodeStats` counted leaf by leaf
    (``tests/test_telemetry_core.py``).
    """

    __slots__ = ("counts", "seconds")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def add_count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def add_seconds(self, stage: str, seconds: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds

    def merge(self, other: "DecodeStats") -> None:
        """Fold another ledger into this one (multi-stream sessions)."""
        for name, value in other.counts.items():
            self.add_count(name, value)
        for stage, seconds in other.seconds.items():
            self.add_seconds(stage, seconds)

    def as_dict(self) -> dict:
        """Plain-data snapshot for reports and tests."""
        return {"counts": dict(self.counts), "seconds": dict(self.seconds)}

    def publish(self, registry: Optional[Registry]) -> None:
        """Merge this ledger into a registry's ``decode.*`` aggregates."""
        if registry is None:
            return
        for name, value in self.counts.items():
            registry.count(f"decode.{name}", value)
        for stage, seconds in self.seconds.items():
            registry.count(f"decode.seconds.{stage}", seconds)
