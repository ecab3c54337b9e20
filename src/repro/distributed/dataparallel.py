"""Data-parallel training with compressed weight-gradient exchange.

Reproduces the Section 5.2 setup: ``num_workers`` replicas share one
set of weights; each step every replica computes gradients on its own
shard, the gradients cross a :class:`Channel` (compressed by LLM.265 /
RTN / nothing), and the averaged result feeds a standard Adam -- or the
1-bit Adam / 1-bit LAMB optimizers, which own their communication.

To keep the codec path fast, 2-D weight gradients are fused into one
flat bucket per worker before compression (NCCL-style bucket fusion);
1-D parameters (biases, norms) travel uncompressed, as real systems do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.comm import Channel, TrafficRecord
from repro.nn.optim import Adam
from repro.nn.optim.onebit import _OneBitBase
from repro.nn.transformer import GPT


@dataclass
class DPStepStats:
    """Loss + traffic for one data-parallel step."""

    step: int
    loss: float
    gradient_bytes: float


def _bucket_shape(size: int, width: int = 128) -> Tuple[int, int]:
    """2-D shape for the fused gradient bucket (pad to a multiple)."""
    rows = (size + width - 1) // width
    return rows, width


class DataParallelTrainer:
    """Single-process simulation of R-replica data parallelism."""

    def __init__(
        self,
        model: GPT,
        num_workers: int,
        gradient_channel: Optional[Channel] = None,
        optimizer=None,
        lr: float = 3e-3,
        bucket_width: int = 128,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.model = model
        self.num_workers = num_workers
        self.gradient_channel = gradient_channel or Channel()
        self.bucket_width = bucket_width
        self.params = model.parameters()
        self._compressible = [p.data.ndim >= 2 for p in self.params]
        if optimizer is None:
            optimizer = Adam(self.params, lr=lr)
        self.optimizer = optimizer
        self._onebit = isinstance(optimizer, _OneBitBase)
        self.step_count = 0
        self.history: List[DPStepStats] = []

    # -- gradient plumbing ---------------------------------------------------

    def _worker_gradients(self, tokens: np.ndarray, targets: np.ndarray) -> List[np.ndarray]:
        """Gradients for one worker's shard (list per parameter)."""
        loss = self.model.loss(tokens, targets)
        self.model.zero_grad()
        loss.backward()
        self._last_loss = float(loss.data)
        return [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in self.params
        ]

    def _fuse(self, grads: Sequence[np.ndarray]) -> np.ndarray:
        chunks = [
            g.reshape(-1) for g, c in zip(grads, self._compressible) if c
        ]
        flat = np.concatenate(chunks) if chunks else np.zeros(0)
        rows, width = _bucket_shape(flat.size, self.bucket_width)
        padded = np.zeros(rows * width)
        padded[: flat.size] = flat
        return padded.reshape(rows, width)

    def _unfuse(self, bucket: np.ndarray, grads: Sequence[np.ndarray]) -> List[np.ndarray]:
        flat = bucket.reshape(-1)
        out: List[np.ndarray] = []
        cursor = 0
        for grad, compressible in zip(grads, self._compressible):
            if compressible:
                out.append(flat[cursor : cursor + grad.size].reshape(grad.shape))
                cursor += grad.size
            else:
                out.append(grad)
        return out

    # -- training -----------------------------------------------------------------

    def train_step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """One step: shard the batch, exchange gradients, update."""
        tokens = np.asarray(tokens)
        targets = np.asarray(targets)
        token_shards = np.array_split(tokens, self.num_workers)
        target_shards = np.array_split(targets, self.num_workers)

        bytes_before = self.gradient_channel.total_compressed_bytes
        worker_grads: List[List[np.ndarray]] = []
        losses: List[float] = []
        for shard_tokens, shard_targets in zip(token_shards, target_shards):
            grads = self._worker_gradients(shard_tokens, shard_targets)
            losses.append(self._last_loss)
            if not self._onebit:
                received = self.gradient_channel.send(
                    self._fuse(grads), step=self.step_count, tag="wgrad"
                )
                grads = self._unfuse(received, grads)
            worker_grads.append(grads)

        if self._onebit:
            # 1-bit optimizers own communication; account their bits.
            self.optimizer.step(worker_grads)
            bits = self.optimizer.bits_log[-1]
            values = sum(g.size for g in worker_grads[0])
            self.gradient_channel.records.append(
                TrafficRecord(
                    tag="onebit",
                    step=self.step_count,
                    num_values=values * self.num_workers,
                    bits_per_value=bits,
                )
            )
        else:
            averaged = [
                np.mean([worker[i] for worker in worker_grads], axis=0)
                for i in range(len(self.params))
            ]
            for param, grad in zip(self.params, averaged):
                param.grad = grad
            self.optimizer.step()

        stats = DPStepStats(
            step=self.step_count,
            loss=float(np.mean(losses)),
            gradient_bytes=self.gradient_channel.total_compressed_bytes - bytes_before,
        )
        self.history.append(stats)
        self.step_count += 1
        return stats.loss

    def train(self, batches, steps: int) -> List[DPStepStats]:
        """Run ``steps`` optimizer steps from a batch iterator."""
        for step, (tokens, targets) in enumerate(batches):
            if step >= steps:
                break
            self.train_step(tokens, targets)
        return self.history
