"""Supervised training loop with curve recording (Fig. 7).

Per epoch: shuffle, minibatch, accumulate summed loss, one Adam step per
minibatch (loss scaled by batch size).  Records train loss/accuracy and,
optionally, held-out accuracy per ``eval_every`` epochs.

Each minibatch goes through the adapter's one training route,
``loss_and_correct_batched``: for the graph models one packed
forward/backward through a recorded tape covers the whole minibatch.  The
optimizer steps on the summed loss divided by the batch size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.dataset.types import LoopDataset, LoopSample
from repro.errors import ConfigError
from repro.mlbase.metrics import accuracy
from repro.nn.optim import Adam
from repro.train.adapters import ModelAdapter
from repro.train.config import TrainConfig
from repro.utils.rng import ensure_rng


@dataclass
class TrainingCurves:
    """Per-epoch training history (the Fig. 7 series)."""

    epochs: List[int] = field(default_factory=list)
    loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    best_epoch: int = 0          # epoch whose parameters were kept

    def final_test_accuracy(self) -> Optional[float]:
        return self.test_accuracy[-1] if self.test_accuracy else None


def train_model(
    adapter: ModelAdapter,
    train_data: LoopDataset,
    config: TrainConfig,
    test_data: Optional[LoopDataset] = None,
    verbose: bool = False,
) -> TrainingCurves:
    """Train ``adapter`` on ``train_data``; returns the training curves."""
    samples: List[LoopSample] = list(train_data)
    if not samples:
        raise ConfigError("empty training set")
    rng = ensure_rng(config.seed)
    if config.max_train_samples and len(samples) > config.max_train_samples:
        picks = rng.choice(
            len(samples), size=config.max_train_samples, replace=False
        )
        samples = [samples[int(i)] for i in picks]

    optimizer = Adam(
        adapter.module.parameters(), lr=config.lr, clip=config.grad_clip
    )
    curves = TrainingCurves()
    start = time.perf_counter()
    adapter.module.train()

    # best-epoch checkpointing on *training* loss (no test peeking): SGD at
    # the fast configuration's learning rate occasionally spikes on the last
    # epoch, and the paper's 200-epoch/1e-5 schedule effectively averages
    # that away — restoring the best-loss parameters plays the same role
    params = adapter.module.parameters()
    best_loss = float("inf")
    best_state = [p.data.copy() for p in params]

    for epoch in range(config.epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        epoch_correct = 0
        for batch_start in range(0, len(samples), config.batch_size):
            batch = [
                samples[int(i)]
                for i in order[batch_start : batch_start + config.batch_size]
            ]
            optimizer.zero_grad()
            loss, correct = adapter.loss_and_correct_batched(
                batch, config.temperature
            )
            (loss * (1.0 / len(batch))).backward()
            optimizer.step()
            epoch_loss += loss.item()
            epoch_correct += correct

        if epoch_loss < best_loss:
            best_loss = epoch_loss
            curves.best_epoch = epoch
            for slot, param in zip(best_state, params):
                slot[...] = param.data

        if epoch % config.eval_every == 0 or epoch == config.epochs - 1:
            curves.epochs.append(epoch)
            curves.loss.append(epoch_loss / len(samples))
            curves.train_accuracy.append(epoch_correct / len(samples))
            if test_data is not None and len(test_data):
                preds = adapter.predict(test_data)
                curves.test_accuracy.append(
                    accuracy(test_data.labels(), preds)
                )
            if verbose:
                test_part = (
                    f" test={curves.test_accuracy[-1]:.3f}"
                    if curves.test_accuracy
                    else ""
                )
                print(
                    f"[{adapter.name}] epoch {epoch:3d} "
                    f"loss={curves.loss[-1]:.4f} "
                    f"train={curves.train_accuracy[-1]:.3f}{test_part}"
                )

    # restore the best-loss parameters
    for slot, param in zip(best_state, params):
        param.data[...] = slot

    curves.wall_seconds = time.perf_counter() - start
    return curves
