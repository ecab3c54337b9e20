"""The error taxonomy every deserialization path funnels through.

Real decoders distinguish *corrupt input* (the bytes are damaged, the
caller may want to conceal) from *running out of time* (the input was
fine, the budget was not).  Before this module existed, a flipped
byte could surface as ``IndexError``, ``EOFError`` or ``struct.error``
from deep inside the arithmetic coder; now everything that parses
untrusted bytes raises :class:`CorruptStreamError` (a ``ValueError``
subclass, so pre-existing ``except ValueError`` call sites keep
working).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = [
    "ChecksumError",
    "ConcealmentReport",
    "CorruptStreamError",
    "DeadlineExceeded",
    "TruncatedStreamError",
]


class CorruptStreamError(ValueError):
    """A bitstream, container, or checkpoint failed to parse.

    Raised by every deserialization path in the codebase -- the frame
    decoder, the entropy coders, ``CompressedTensor.from_bytes``, and
    the checkpoint loader -- so callers need exactly one except clause.
    """


class TruncatedStreamError(CorruptStreamError):
    """Input ended before the format said it would."""


class ChecksumError(CorruptStreamError):
    """A CRC32-protected region failed verification."""

    def __init__(self, message: str, expected: int = 0, actual: int = 0) -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class DeadlineExceeded(TimeoutError):
    """A cooperative deadline budget ran out mid-request.

    Raised by :class:`repro.resilience.deadline.Deadline` checkpoints
    inside the encoder, decoder, rate-control loops, and pool waits.
    Deliberately a ``TimeoutError`` (not a :class:`CorruptStreamError`):
    the input was fine, the time budget was not -- callers respond by
    shedding or degrading, never by concealing.
    """


@dataclass
class ConcealmentReport:
    """What a concealment-mode decode had to patch over.

    ``concealed`` holds ``(slice_index, reason)`` pairs, one per slice
    that could not be decoded; :attr:`clean` is True for a fault-free
    stream.  Tensor-level decodes map slice indices 1:1 onto tile
    indices in raster order.
    """

    total_slices: int = 0
    concealed: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def concealed_count(self) -> int:
        return len(self.concealed)

    @property
    def clean(self) -> bool:
        return not self.concealed

    def merge(self, other: "ConcealmentReport", offset: int = 0) -> None:
        """Fold ``other`` into this report, shifting its slice indices."""
        self.total_slices += other.total_slices
        self.concealed.extend(
            (index + offset, reason) for index, reason in other.concealed
        )

    def summary(self) -> str:
        if self.clean:
            return f"clean ({self.total_slices} slices verified)"
        return (
            f"{self.concealed_count}/{self.total_slices} slices concealed: "
            + ", ".join(f"#{i} ({reason})" for i, reason in self.concealed[:8])
            + ("..." if self.concealed_count > 8 else "")
        )
