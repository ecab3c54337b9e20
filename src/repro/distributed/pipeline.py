"""Pipeline-parallel training with compressed stage-boundary traffic.

Reproduces the Section 5.1 setup: the transformer's blocks are split
across ``num_stages`` simulated devices; activations flow forward and
activation gradients flow backward through :class:`Channel` objects, so
any compressor (LLM.265, RTN, residual-compensated) can sit on either
direction.  Micro-batching follows GPipe (all forwards, then all
backwards, gradient accumulation across micro-batches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.distributed.comm import Channel
from repro.nn import autograd
from repro.nn.autograd import Tensor
from repro.nn.optim import Adam
from repro.nn.transformer import GPT


@dataclass
class StepStats:
    """Loss + traffic for one optimizer step."""

    step: int
    loss: float
    activation_bytes: float
    gradient_bytes: float


class PipelineParallelTrainer:
    """GPipe-style trainer over a stage-partitioned GPT."""

    def __init__(
        self,
        model: GPT,
        num_stages: int,
        activation_channel: Optional[Channel] = None,
        gradient_channel: Optional[Channel] = None,
        lr: float = 3e-3,
        micro_batches: int = 2,
    ) -> None:
        if num_stages < 2:
            raise ValueError("pipeline parallelism needs at least two stages")
        if len(model.blocks) < num_stages:
            raise ValueError("more stages than transformer blocks")
        self.model = model
        self.num_stages = num_stages
        self.activation_channel = activation_channel or Channel()
        self.gradient_channel = gradient_channel or Channel()
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.micro_batches = micro_batches
        self.step_count = 0
        self.history: List[StepStats] = []
        # Assign blocks to stages as evenly as possible.
        per_stage = len(model.blocks) // num_stages
        extra = len(model.blocks) % num_stages
        self._stage_blocks: List[List] = []
        cursor = 0
        for stage in range(num_stages):
            take = per_stage + (1 if stage < extra else 0)
            self._stage_blocks.append(model.blocks[cursor : cursor + take])
            cursor += take

    # -- stage execution -----------------------------------------------------

    def _stage_forward(self, stage: int, x: Tensor, tokens: np.ndarray) -> Tensor:
        model = self.model
        if stage == 0:
            batch, seq = tokens.shape
            positions = np.broadcast_to(np.arange(seq), (batch, seq))
            x = model.tok_emb(tokens) + model.pos_emb(positions)
        for block in self._stage_blocks[stage]:
            x = block(x)
        return x

    def _last_stage_loss(self, x: Tensor, targets: np.ndarray) -> Tensor:
        logits = self.model.head(self.model.ln_f(x))
        return autograd.cross_entropy(logits, targets)

    # -- training --------------------------------------------------------------

    def train_step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """One optimizer step over ``micro_batches`` splits of the batch."""
        tokens = np.asarray(tokens)
        targets = np.asarray(targets)
        token_shards = np.array_split(tokens, self.micro_batches)
        target_shards = np.array_split(targets, self.micro_batches)

        self.optimizer.zero_grad()
        total_loss = 0.0
        act_bytes_before = self.activation_channel.total_compressed_bytes
        grad_bytes_before = self.gradient_channel.total_compressed_bytes

        for shard_tokens, shard_targets in zip(token_shards, target_shards):
            if shard_tokens.size == 0:
                continue
            # Forward through the pipeline; record boundary tensors.
            boundary_inputs: List[Tensor] = []
            boundary_outputs: List[Tensor] = []
            x: Optional[Tensor] = None
            for stage in range(self.num_stages):
                out = self._stage_forward(stage, x, shard_tokens)
                if stage < self.num_stages - 1:
                    received = self.activation_channel.send(
                        out.data, step=self.step_count, tag=f"act-s{stage}"
                    )
                    boundary_outputs.append(out)
                    x = Tensor(received, requires_grad=True)
                    boundary_inputs.append(x)
                else:
                    loss = self._last_stage_loss(out, shard_targets)
            total_loss += float(loss.data)

            # Backward, stage by stage, sending activation gradients.
            loss.backward(np.array(1.0 / len(token_shards)))
            for stage in range(self.num_stages - 2, -1, -1):
                grad = boundary_inputs[stage].grad
                received = self.gradient_channel.send(
                    grad, step=self.step_count, tag=f"grad-s{stage}"
                )
                boundary_outputs[stage].backward(received)

        self.optimizer.step()
        stats = StepStats(
            step=self.step_count,
            loss=total_loss / self.micro_batches,
            activation_bytes=self.activation_channel.total_compressed_bytes
            - act_bytes_before,
            gradient_bytes=self.gradient_channel.total_compressed_bytes
            - grad_bytes_before,
        )
        self.history.append(stats)
        self.step_count += 1
        return stats.loss

    def train(
        self,
        batches,
        steps: int,
        eval_fn: Optional[Callable[[GPT], float]] = None,
        eval_every: int = 0,
    ) -> List[StepStats]:
        """Run ``steps`` optimizer steps from a batch iterator."""
        evals = []
        for step, (tokens, targets) in enumerate(batches):
            if step >= steps:
                break
            self.train_step(tokens, targets)
            if eval_fn and eval_every and (step + 1) % eval_every == 0:
                evals.append(eval_fn(self.model))
        return self.history
