"""Machine envelope and the calibration loop that flags a noisy run."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from time import perf_counter
from typing import Dict, List

CALIB_ROUNDS = 15


def calib_samples(rounds: int = CALIB_ROUNDS) -> List[float]:
    """Seconds per round of a fixed interpreter spin plus small matmuls.

    The work never changes, so its median moving between the start and
    the end of a run (or between two runs) is the machine, not the
    program.
    """
    import numpy as np

    block = np.full((96, 96), 0.5)
    samples = []
    for _ in range(rounds):
        start = perf_counter()
        total = 0
        for value in range(20_000):
            total += value & 7
        product = block
        for _ in range(6):
            product = (product @ block) * (1.0 / 48.0)
        if total < 0 or product[0, 0] < 0:  # keep both results live
            raise AssertionError("calibration arithmetic went wrong")
        samples.append(perf_counter() - start)
    return samples


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def filesystem_type(path: str) -> str:
    """Type of the mount holding ``path`` (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def git_rev(repo_root: str) -> str:
    if not os.path.exists(os.path.join(repo_root, ".git")):
        return "unknown"  # an exported checkout: do not let git look further up
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def envelope(repo_root: str, scratch: str) -> Dict[str, object]:
    """What a reader needs to compare this output with another machine's."""
    import numpy as np

    return {
        "git_rev": git_rev(repo_root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "scratch": os.path.relpath(scratch, repo_root),
        "scratch_fs": filesystem_type(scratch),
    }
