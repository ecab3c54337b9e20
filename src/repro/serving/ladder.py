"""The production codec record: the one search, its fan-out and backend.

:class:`CodecService` builds its codec from ``DEFAULT_LADDER[0]``, and
the stack benchmark reads the same record.  One record is enough: a
failed kernel-library load sends every entry to the pure-Python twin,
and a slice the kernel refuses is re-coded by the twin, so a codec
without kernels or threads would give the same bytes by a fallback
that is already automatic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.parallel import ParallelConfig

__all__ = ["DEFAULT_LADDER", "Rung"]


@dataclass(frozen=True)
class Rung:
    """One codec configuration: fan-out and encode backend."""

    name: str
    #: Every codec runs the one search there is; read-only, and nothing
    #: branches on it.
    rd_search: str = field(default="turbo", init=False)
    parallel: Optional[ParallelConfig] = None
    encode: str = "native"

    def __post_init__(self) -> None:
        from repro.codec.encoder import ENCODES

        if self.encode not in ENCODES:
            raise ValueError(f"unknown encode {self.encode!r}")


#: Kernels + a 2-thread slice pool.  What the two threads buy is
#: measured, not assumed (docs/PERFORMANCE.md): a slice is GIL-free
#: whole-slice C calls in both directions, so two threads overlap
#: (decode 1.45x on 2 cores; encode 1.1x under numpy's BLAS pool, 1.85x
#: with it off), and both sides stay serial when their kernels are
#: unavailable.
DEFAULT_LADDER: Tuple[Rung, ...] = (Rung("turbo", ParallelConfig(workers=2)),)
