"""Figure 7: training loss and accuracy curves on the generated dataset.

The curves are those of the MV-GNN every other experiment shares
(:meth:`ExperimentContext.trained`); each row also names the size and
majority-class prior of the two splits its accuracies are measured on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.train.trainer import TrainingCurves, train_model
from repro.experiments.common import (
    ExperimentContext,
    majority_prior,
    make_mvgnn_adapter,
)


@dataclass
class Fig7Row:
    seed: int
    curves: TrainingCurves
    train_loops: int
    train_prior: float               # percent
    test_loops: int
    test_prior: float                # percent

    def loss_decreased(self) -> bool:
        loss = self.curves.loss
        return len(loss) >= 2 and loss[-1] < loss[0]

    def accuracy_increased(self) -> bool:
        acc = self.curves.train_accuracy
        return len(acc) >= 2 and acc[-1] > acc[0]


@dataclass
class Fig7Result:
    rows: List[Fig7Row] = field(default_factory=list)

    def format(self) -> str:
        lines = []
        for row in self.rows:
            curves = row.curves
            lines.append(
                f"seed {row.seed}: train {row.train_loops} loops "
                f"(prior {row.train_prior:.1f}%), test {row.test_loops} "
                f"loops (prior {row.test_prior:.1f}%)"
            )
            lines.append(
                f"{'epoch':>6}{'loss':>10}{'train acc':>11}{'test acc':>10}"
            )
            test_series = curves.test_accuracy or [float("nan")] * len(
                curves.epochs
            )
            for epoch, loss, train_acc, test_acc in zip(
                curves.epochs, curves.loss, curves.train_accuracy, test_series
            ):
                lines.append(
                    f"{epoch:>6}{loss:>10.4f}{train_acc:>11.3f}{test_acc:>10.3f}"
                )
            lines.append(
                f"shape check (paper Fig. 7): loss decreased "
                f"{row.loss_decreased()}, train accuracy increased "
                f"{row.accuracy_increased()}"
            )
        return "\n".join(lines)


def fig7_training_curves(
    ctx: ExperimentContext, seeds: Optional[Sequence[int]] = None
) -> Fig7Result:
    """MV-GNN's per-epoch loss/accuracy on the generated data, per seed
    (default: ``ctx.seed``)."""
    train, test = ctx.data.train, ctx.data.test
    return Fig7Result([
        Fig7Row(
            seed, ctx.trained("MV-GNN", seed)[1],
            len(train), majority_prior(train.labels()),
            len(test), majority_prior(test.labels()),
        )
        for seed in seeds or (ctx.seed,)
    ])


def train_one_epoch(ctx: ExperimentContext) -> TrainingCurves:
    """One epoch of a fresh MV-GNN over the training split: the unit of
    training throughput the Fig. 7 bench times."""
    adapter = make_mvgnn_adapter(ctx, 123)
    config = replace(ctx.train_config, epochs=1, seed=7)
    return train_model(adapter, ctx.data.train, config)
