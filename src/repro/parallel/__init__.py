"""repro.parallel: the slice/tensor fan-out engine.

One shared thread-pool abstraction (:class:`ParallelConfig`,
:func:`parallel_map`) used by the frame encoder and decoder
(slice-parallel coding), the tensor codec (per-tensor fan-out), and
the checkpoint writer.  Parallel output is guaranteed byte-identical
to the serial path; see ``docs/PERFORMANCE.md``.
"""

from repro.parallel.awake import awake_stats, keep_awake
from repro.parallel.pool import (
    ParallelConfig,
    get_executor,
    parallel_map,
    pool_stats,
    shutdown_pools,
)

__all__ = [
    "ParallelConfig",
    "awake_stats",
    "keep_awake",
    "get_executor",
    "parallel_map",
    "pool_stats",
    "shutdown_pools",
]
