"""Deterministic, seeded fault injection for workers and bytes.

One :class:`FaultInjector` models what the chaos soak and the fuzzers inject:
flipped bits, truncated payloads, straggler delay and worker hangs.
Every decision comes from a single seeded ``numpy`` generator, so a
test that injects faults is exactly reproducible -- same seed, same
carnage.  Anything byte-shaped can be damaged directly (checkpoint
files, containers, frame streams).

Beyond in-flight bytes, the injector also damages bytes *at rest*:
:meth:`file_bit_flip`, :meth:`file_truncate`, and :meth:`file_unlink`
model latent sector corruption, a lost write (torn file tail), and a
vanished file respectively -- the three disk failure modes the durable
store's scrubber and recovery path must turn into typed errors, never
silent wrong answers.  :meth:`damage_file` picks one at random
(seeded); :meth:`damage_span` does the same to one byte range of a
file, for stores that keep many values in one log.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.telemetry as telemetry

__all__ = ["DISK_FAULT_MODES", "FaultConfig", "FaultInjector"]

#: On-disk fault modes :meth:`FaultInjector.damage_file` chooses among.
DISK_FAULT_MODES = ("bit_flip", "truncate", "unlink")


@dataclass
class FaultConfig:
    """Per-event-kind probabilities (independent, evaluated per draw)."""

    bit_flip_prob: float = 0.0  # flip 1..max_flips random bits
    truncate_prob: float = 0.0  # cut the payload at a random offset
    straggler_prob: float = 0.0  # delayed delivery (simulated seconds)
    hang_prob: float = 0.0  # worker stalls (unbounded from its own view)
    max_flips: int = 8
    straggler_delay_s: float = 0.25
    hang_s: float = 0.25  # stall length a deadline must bound

    def validate(self) -> None:
        for name in ("bit_flip_prob", "truncate_prob", "straggler_prob", "hang_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


class FaultInjector:
    """Seeded source of injected faults.

    Parameters mirror :class:`FaultConfig`; pass either a config object
    or the individual probabilities as keyword arguments.
    """

    def __init__(
        self,
        seed: int = 0,
        config: Optional[FaultConfig] = None,
        **probabilities,
    ) -> None:
        self.config = config or FaultConfig(**probabilities)
        self.config.validate()
        self.rng = np.random.default_rng(seed)
        self.injected = 0  # total fault events produced

    # -- byte-level faults ---------------------------------------------

    def flip_bits(self, payload: bytes, flips: int = 1) -> bytes:
        """Flip ``flips`` uniformly random bits (always applies, for fuzzing)."""
        if not payload:
            return payload
        damaged = bytearray(payload)
        for _ in range(flips):
            position = int(self.rng.integers(0, len(damaged)))
            damaged[position] ^= 1 << int(self.rng.integers(0, 8))
        return bytes(damaged)

    def truncate(self, payload: bytes) -> bytes:
        """Cut the payload at a uniformly random offset (for fuzzing)."""
        if not payload:
            return payload
        return payload[: int(self.rng.integers(0, len(payload)))]

    # -- at-rest (on-disk) faults --------------------------------------

    def file_bit_flip(self, path: str, flips: int = 1) -> int:
        """Flip ``flips`` random bits in the file at ``path``, in place.

        Models latent sector corruption (bit rot): the file keeps its
        size and mtime-ish plausibility, only the payload is wrong --
        exactly what only a CRC re-verification can catch.  Returns the
        number of bits flipped (0 for an empty or missing file).
        """
        try:
            with open(path, "r+b") as handle:
                blob = handle.read()
                if not blob:
                    return 0
                handle.seek(0)
                handle.write(self.flip_bits(blob, flips))
        except OSError:
            return 0
        self.record("disk.bit_flips")
        return flips

    def file_truncate(self, path: str, at: Optional[int] = None) -> int:
        """Truncate the file at ``at`` (random offset if ``None``).

        Models a lost write / torn tail: everything past the cut is
        gone, everything before it is intact.  Returns the number of
        bytes removed.
        """
        try:
            size = os.path.getsize(path)
            if size == 0:
                return 0
            cut = (
                int(self.rng.integers(0, size)) if at is None
                else max(0, min(int(at), size))
            )
            with open(path, "r+b") as handle:
                handle.truncate(cut)
        except OSError:
            return 0
        self.record("disk.truncations")
        return size - cut

    def file_unlink(self, path: str) -> bool:
        """Delete the file outright (vanished segment / fat-finger rm)."""
        try:
            os.unlink(path)
        except OSError:
            return False
        self.record("disk.unlinks")
        return True

    def damage_file(self, path: str, mode: Optional[str] = None) -> str:
        """Apply one seeded on-disk fault to ``path``; returns the mode used.

        ``mode`` pins the fault kind; otherwise one of
        :data:`DISK_FAULT_MODES` is drawn from the injector's generator
        so a soak's disk carnage is as reproducible as its link faults.
        Returns ``""`` when the fault could not be applied (missing or
        empty file).
        """
        if mode is None:
            mode = DISK_FAULT_MODES[
                int(self.rng.integers(0, len(DISK_FAULT_MODES)))
            ]
        if mode == "bit_flip":
            flips = int(self.rng.integers(1, self.config.max_flips + 1))
            return mode if self.file_bit_flip(path, flips) else ""
        if mode == "truncate":
            return mode if self.file_truncate(path) else ""
        if mode == "unlink":
            return mode if self.file_unlink(path) else ""
        raise ValueError(
            f"unknown disk fault mode {mode!r}; expected {DISK_FAULT_MODES}"
        )

    def damage_span(
        self, path: str, offset: int, length: int, mode: Optional[str] = None
    ) -> str:
        """:meth:`damage_file` for bytes ``[offset, offset + length)`` only.

        Same modes, same counters, same seeded draw, but the file keeps
        its size and every byte outside the span: ``bit_flip`` flips
        bits inside it, ``truncate`` zero-fills from a drawn cut to its
        end (a lost write), ``unlink`` zero-fills all of it (a vanished
        value).  Returns ``""`` when nothing could be damaged.
        """
        if mode is None:
            mode = DISK_FAULT_MODES[
                int(self.rng.integers(0, len(DISK_FAULT_MODES)))
            ]
        if mode not in DISK_FAULT_MODES:
            raise ValueError(
                f"unknown disk fault mode {mode!r}; expected {DISK_FAULT_MODES}"
            )
        try:
            with open(path, "r+b") as handle:
                handle.seek(offset)
                blob = handle.read(length)
                if not blob:
                    return ""
                if mode == "bit_flip":
                    flips = int(self.rng.integers(1, self.config.max_flips + 1))
                    damaged = self.flip_bits(blob, flips)
                else:
                    cut = (
                        int(self.rng.integers(0, len(blob)))
                        if mode == "truncate" else 0
                    )
                    damaged = blob[:cut] + bytes(len(blob) - cut)
                handle.seek(offset)
                handle.write(damaged)
        except OSError:
            return ""
        self.record({
            "bit_flip": "disk.bit_flips",
            "truncate": "disk.truncations",
            "unlink": "disk.unlinks",
        }[mode])
        return mode

    # -- timing / liveness faults --------------------------------------

    def straggler_delay(self) -> float:
        """Simulated delivery delay in seconds for one send (0.0 = on time)."""
        cfg = self.config
        if cfg.straggler_prob and self.rng.random() < cfg.straggler_prob:
            self.record("stragglers")
            return cfg.straggler_delay_s * float(self.rng.random() + 0.5)
        return 0.0

    def worker_hang_s(self) -> float:
        """Stall length for one unit of work (0.0 = no hang).

        From the worker's own perspective the stall is unbounded -- it
        never voluntarily recovers; the returned duration exists only
        so a single-process simulation eventually frees the thread.
        Whoever waits on the work must bound the hang by its *own*
        clock (a request deadline, the router's), never by trusting
        this value.
        """
        cfg = self.config
        if cfg.hang_prob and self.rng.random() < cfg.hang_prob:
            self.record("hangs")
            return cfg.hang_s * float(self.rng.random() + 0.5)
        return 0.0

    # -- the ledger ----------------------------------------------------

    def record(self, kind: Optional[str] = None) -> None:
        """Count one injected fault, here or by a soak that injects its own.

        Every fault adds to :attr:`injected` and ``faults.injected``; a
        ``kind`` also counts ``faults.<kind>``.  Only the kinds something
        reads are named (docs/OBSERVABILITY.md): hangs, stragglers and
        the three on-disk modes.
        """
        self.injected += 1
        telemetry.count("faults.injected")
        if kind is not None:
            telemetry.count(f"faults.{kind}")
