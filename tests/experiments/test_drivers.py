"""The Table III, Fig. 7 and Fig. 8 drivers on the tiny dataset: row
fields, priors, seeds, and the shared trained models."""

import numpy as np
import pytest

from repro.dataset.assemble import DatasetConfig
from repro.experiments.common import build_context
from repro.experiments.fig7 import fig7_training_curves
from repro.experiments.fig8 import VIEWS, fig8_view_importance
from repro.experiments.table3 import (
    LEARNED,
    TOOLS,
    Table3Row,
    eval_sets,
    table3_accuracy,
)
from repro.train.config import TrainConfig
from repro.train.eval import count_identified_parallel, evaluate_adapter


def _majority_share(labels) -> float:
    ones = int(np.sum(labels))
    return 100.0 * max(ones, len(labels) - ones) / len(labels)


@pytest.fixture(scope="module")
def ctx():
    return build_context(
        dataset_config=DatasetConfig.tiny(), train_config=TrainConfig.smoke()
    )


@pytest.fixture(scope="module")
def two_seeds(ctx):
    return (ctx.seed, ctx.seed + 1)


class TestTable3Driver:
    def test_rows_carry_loops_and_prior(self, ctx):
        result = table3_accuracy(ctx)
        sets = eval_sets(ctx)
        assert sets and {row.suite for row in result.rows} == set(sets)
        for row in result.rows:
            labels = sets[row.suite].labels()
            assert row.seed == ctx.seed
            assert row.loops == len(labels)
            assert row.prior == pytest.approx(_majority_share(labels))
            assert 0.0 <= row.accuracy <= 100.0
        methods = {row.method for row in result.rows}
        assert set(LEARNED) | set(TOOLS) <= methods

    def test_two_seeds_two_rows_per_cell(self, ctx, two_seeds):
        plain = table3_accuracy(ctx)
        both = table3_accuracy(ctx, seeds=two_seeds)
        cells = {}
        for row in both.rows:
            cells.setdefault((row.suite, row.method), []).append(row.seed)
        assert all(seeds == list(two_seeds) for seeds in cells.values())
        assert [r for r in both.rows if r.seed == ctx.seed] == plain.rows
        assert table3_accuracy(ctx, seeds=(ctx.seed,)).rows == plain.rows

    def test_models_trained_once_per_seed(self, ctx):
        first = ctx.trained("MV-GNN")
        table3_accuracy(ctx)
        fig7_training_curves(ctx)
        fig8_view_importance(ctx)
        assert ctx.trained("MV-GNN") is first
        assert ctx.trained("MV-GNN", ctx.seed + 1) is not first


class _Constant:
    """A predictor that always answers ``label``."""

    def __init__(self, label: int) -> None:
        self.label = label

    def predict(self, data):
        return np.full(len(data), self.label, dtype=np.int64)


class TestPriorGate:
    """Table III's single-number gate compares an accuracy to its prior: a
    constant majority-class predictor must fail it."""

    def test_constant_majority_predictor_fails(self, ctx):
        for suite, data in eval_sets(ctx).items():
            labels = data.labels()
            majority = int(2 * labels.sum() >= len(labels))
            row = Table3Row.scored(
                suite, "constant",
                evaluate_adapter(_Constant(majority), data), data, ctx.seed,
            )
            assert row.accuracy == pytest.approx(row.prior)
            assert not row.above_prior, suite

    def test_better_than_prior_passes(self, ctx):
        data = eval_sets(ctx)["NPB"]
        row = Table3Row.scored("NPB", "oracle", 1.0, data, ctx.seed)
        assert row.prior < 100.0 and row.above_prior


class TestFig7Driver:
    def test_rows_and_seeds(self, ctx, two_seeds):
        plain = fig7_training_curves(ctx)
        (row,) = plain.rows
        assert row.curves is ctx.trained("MV-GNN")[1]
        assert row.train_loops == len(ctx.data.train)
        assert row.test_loops == len(ctx.data.test)
        assert row.train_prior == pytest.approx(
            _majority_share(ctx.data.train.labels())
        )
        assert row.test_prior == pytest.approx(
            _majority_share(ctx.data.test.labels())
        )
        assert len(row.curves.loss) == ctx.train_config.epochs
        both = fig7_training_curves(ctx, seeds=two_seeds)
        assert [r.seed for r in both.rows] == list(two_seeds)
        assert both.rows[0] == row
        assert "prior" in plain.format()


class TestFig8Driver:
    def test_rows_and_seeds(self, ctx, two_seeds):
        plain = fig8_view_importance(ctx)
        assert plain.rows
        for row in plain.rows:
            labels = ctx.data.benchmark.by_suite(row.suite).labels()
            assert row.loops == len(labels) > 0
            assert row.prior == pytest.approx(_majority_share(labels))
            assert set(row.accuracy) == set(VIEWS)
            assert {"N_multi", "N_n", "N_s", "IMP_n", "IMP_s"} <= set(
                row.importance
            )
        both = fig8_view_importance(ctx, seeds=two_seeds)
        cells = {}
        for row in both.rows:
            cells.setdefault(row.suite, []).append(row.seed)
        assert all(seeds == list(two_seeds) for seeds in cells.values())
        assert [r for r in both.rows if r.seed == ctx.seed] == plain.rows

    def test_one_prediction_per_model_and_suite(self, ctx, monkeypatch):
        models = [ctx.trained(name)[0] for name in VIEWS]
        calls = []
        for model in models:
            def counting(samples, _real=model.predict):
                calls.append(_real)
                return _real(samples)

            monkeypatch.setattr(model, "predict", counting)
        result = fig8_view_importance(ctx)
        assert result.rows
        assert len(calls) == 3 * len(result.rows)
        # the values equal separate counting and accuracy passes
        for row in result.rows:
            data = ctx.data.benchmark.by_suite(row.suite)
            assert row.accuracy == {
                name: 100.0 * evaluate_adapter(model, data)
                for name, model in zip(VIEWS, models)
            }
            n_multi, n_node, n_struct = (
                count_identified_parallel(model, data) for model in models
            )
            assert row.importance == {
                "N_multi": float(n_multi),
                "N_n": float(n_node),
                "N_s": float(n_struct),
                "IMP_n": n_node / max(n_multi, 1),
                "IMP_s": n_struct / max(n_multi, 1),
            }

    def test_single_view_budget_is_capped(self, ctx):
        _, curves = ctx.trained("node view")
        assert len(curves.loss) == min(15, ctx.train_config.epochs)
