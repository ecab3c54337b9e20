"""repro.resilience: error-resilient bitstreams.

What real video codecs ship and tensor codecs forget: independently
decodable checksummed slices, a single loud error taxonomy, and seeded
fault injection.  See ``docs/RESILIENCE.md`` for the framing formats
and concealment semantics.

- :mod:`repro.resilience.errors` -- :class:`CorruptStreamError` and
  friends; every deserialization path in the repo raises these.
- :mod:`repro.resilience.framing` -- CRC32 slice framing shared by the
  frame bitstream and the tensor container.
- :mod:`repro.resilience.faults` -- deterministic seeded fault
  injection (bit flips, truncation, stragglers, hangs, disk faults).
- :mod:`repro.resilience.verify` -- integrity checks behind
  ``llm265 verify``.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    ChecksumError,
    ConcealmentReport,
    CorruptStreamError,
    DeadlineExceeded,
    TruncatedStreamError,
)
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.resilience.framing import (
    SLICE_OVERHEAD,
    crc32,
    deframe_slices,
    frame_slice,
    frame_slices,
)

__all__ = [
    "ChecksumError",
    "ConcealmentReport",
    "CorruptStreamError",
    "Deadline",
    "DeadlineExceeded",
    "FaultConfig",
    "FaultInjector",
    "SLICE_OVERHEAD",
    "TruncatedStreamError",
    "crc32",
    "deframe_slices",
    "frame_slice",
    "frame_slices",
    "verify_path",
]


def verify_path(path, deep: bool = False):
    """Integrity-check a container / stream / checkpoint file.

    Thin lazy wrapper over :func:`repro.resilience.verify.verify_path`
    (lazy because the verifier imports the codec stack, which itself
    imports this package's error types).
    """
    from repro.resilience.verify import verify_path as _verify

    return _verify(path, deep=deep)
