"""repro.parallel: the slice/tensor fan-out engine.

One shared thread-pool abstraction (:class:`ParallelConfig`,
:func:`parallel_map`) and one rule for when to use it
(:func:`group_runs`), used by the frame encoder and decoder
(slice-parallel coding); the tensor codec, the checkpoint writer and
the serving ladder hand a config down to them.  Parallel output is
guaranteed byte-identical to the serial path; see
``docs/PERFORMANCE.md``.
"""

from repro.parallel.awake import awake_stats, keep_awake
from repro.parallel.pool import (
    ParallelConfig,
    group_runs,
    parallel_map,
    pool_stats,
    usable_cpus,
)

__all__ = [
    "ParallelConfig",
    "awake_stats",
    "group_runs",
    "keep_awake",
    "parallel_map",
    "pool_stats",
    "usable_cpus",
]
