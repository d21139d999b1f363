"""Figure 7: training loss and accuracy curves.

Prints the per-epoch series of the shared MV-GNN training run
(:func:`repro.experiments.fig7.fig7_training_curves`) with the size and
majority prior of the train and test splits, and asserts the paper's
qualitative shape: loss trends down, accuracy trends up toward a plateau.
Also times a single training epoch (the meaningful unit of training
throughput).
"""

import numpy as np
import pytest

from repro.experiments.fig7 import fig7_training_curves, train_one_epoch

from benchmarks.common import banner, emit, get_context


@pytest.fixture(scope="module")
def curves():
    result = fig7_training_curves(get_context())
    banner("Figure 7 — training loss (top) and accuracy (bottom)")
    emit(result.format())
    return result.rows[0].curves


def test_one_training_epoch_speed(benchmark):
    """Wall time of one MV-GNN epoch over the training split."""
    ctx = get_context()
    benchmark.pedantic(lambda: train_one_epoch(ctx), rounds=1, iterations=1)


def test_loss_decreases(benchmark, curves):
    # compare smoothed head vs tail to tolerate SGD noise
    head, tail = benchmark.pedantic(
        lambda: (float(np.mean(curves.loss[:3])), float(np.mean(curves.loss[-3:]))),
        rounds=1, iterations=1,
    )
    assert tail < head


def test_accuracy_increases(benchmark, curves):
    head, tail = benchmark.pedantic(
        lambda: (
            float(np.mean(curves.train_accuracy[:3])),
            float(np.mean(curves.train_accuracy[-3:])),
        ),
        rounds=1, iterations=1,
    )
    assert tail > head


def test_final_accuracy_plateaus_high(benchmark, curves):
    final = benchmark.pedantic(
        lambda: curves.train_accuracy[-1], rounds=1, iterations=1
    )
    assert final >= 0.85
