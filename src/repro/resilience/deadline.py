"""Cooperative deadline budgets threaded through long-running work.

A :class:`Deadline` is a wall-clock budget that hot loops
poll between natural units of work (a frame, a rate-control iteration,
a tile).  Cooperative cancellation is the only kind that composes with
a codec: preemption mid-frame would leave half-written entropy state,
whereas a per-frame check abandons the request at a slice boundary
with nothing orphaned -- the partially encoded frames are simply
dropped with the exception.

The deadline stores an *absolute* ``time.monotonic()`` expiry, so one
object can be handed to every pool thread a request fans out to, and
every holder observes the same remaining budget.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.resilience.errors import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """An absolute expiry that work units poll cooperatively.

    Build one with :meth:`after` (a relative budget) and pass it down a
    call stack; callees call :meth:`check` at loop boundaries and
    :meth:`remaining` when converting the budget into a blocking-wait
    timeout.  ``None`` is the conventional "no deadline" value, so all
    consumers take ``Optional[Deadline]``.
    """

    __slots__ = ("expires_at", "label")

    def __init__(self, expires_at: float, label: str = "request") -> None:
        self.expires_at = float(expires_at)
        self.label = label

    @classmethod
    def after(cls, budget_s: float, label: str = "request") -> "Deadline":
        """Deadline ``budget_s`` seconds from now."""
        if budget_s < 0:
            raise ValueError(f"budget_s must be >= 0, got {budget_s}")
        return cls(time.monotonic() + budget_s, label=label)

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self.expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, stage: str = "") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is gone."""
        now = time.monotonic()
        if now >= self.expires_at:
            where = f" during {stage}" if stage else ""
            raise DeadlineExceeded(
                f"{self.label} deadline exceeded{where} "
                f"(overran by {now - self.expires_at:.3f}s)"
            )

    def __repr__(self) -> str:
        return f"Deadline({self.label!r}, remaining={self.remaining():.3f}s)"


def effective_timeout(
    deadline: Optional[Deadline], timeout_s: Optional[float]
) -> Optional[float]:
    """Merge an explicit timeout with a deadline's remaining budget.

    Returns the tighter of the two, or ``None`` when neither bounds
    the wait.  Shared by every layer that converts cooperative budgets
    into blocking-wait timeouts (pool waits, broker queueing).
    """
    if deadline is None:
        return timeout_s
    remaining = deadline.remaining()
    if timeout_s is None:
        return remaining
    return min(timeout_s, remaining)
