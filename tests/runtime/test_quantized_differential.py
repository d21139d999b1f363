"""Differential accuracy wall for the quantized ``fast`` execution tier.

Three guarantees, pinned across every MV-GNN architecture variant and
batch-shape class of the PR-7 tape wall:

* **exact stays exact** — ``precision="exact"`` on an engine that also
  serves fast traffic remains *byte-identical* to the PR-7 compiled path
  (and to the interpreted reference), before and after calibration and
  interleaved with fast calls;
* **fast drift is bounded** — calibrated fast-tier logits track the float
  logits within a quantization error budget per sample, with no NaN/Inf;
* **accuracy survives** — on the tiny dataset's generated split, a trained
  model's fast-tier accuracy lands within 0.5 points of the float path.
"""

import numpy as np
import pytest

from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNNConfig
from repro.nn.quantize import Calibration
from repro.runtime import Engine, quantize_tape
from repro.runtime.engine import GraphInput
from repro.runtime.qtape import quantizable_positions

from tests.runtime.test_engine import _mvgnn, _ragged_inputs
from tests.runtime.test_tape_differential import (
    SIZE_SETS,
    _mvgnn_variant,
    _packed,
    record_forward,
)

#: per-logit absolute drift budget for the calibrated fast tier on the
#: random probe models (logits are O(1); measured drift is O(1e-2))
DRIFT_TOL = 0.15

#: generated-set accuracy gap budget: 0.5 points
ACCURACY_GAP = 0.005

VARIANTS = ["default", "fusion_hidden", "small_k"]


def _graph_inputs(rng, sizes):
    graphs, walks = _ragged_inputs(rng, sizes=sizes)
    return [
        GraphInput(
            x_semantic=x, x_structural=w, adjacency=a, graph_id=f"g{pos}"
        )
        for pos, ((x, a), w) in enumerate(zip(graphs, walks))
    ]


class TestExactByteIdentity:
    """The fast tier must never perturb the exact one."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_exact_identical_to_pr7_path(self, rng, variant, sizes):
        """An engine carrying fast tapes + calibration answers exact
        requests byte-identically to a plain PR-7 compiled engine."""
        model = _mvgnn_variant(variant)
        inputs = _graph_inputs(rng, sizes)
        baseline = Engine(model, compile=True).logits_many(inputs)
        engine = Engine(model, compile=True)
        engine.calibrate(inputs)
        # interleave: fast first, exact, fast again, exact again
        engine.logits_many(inputs, precision="fast")
        np.testing.assert_array_equal(
            engine.logits_many(inputs, precision="exact"), baseline
        )
        engine.logits_many(inputs, precision="fast")
        np.testing.assert_array_equal(engine.logits_many(inputs), baseline)

    def test_exact_identical_on_fast_default_engine(self, rng):
        model = _mvgnn()
        inputs = _graph_inputs(rng, (1, 3, 8, 40, 2, 1))
        baseline = Engine(model, compile=True).logits_many(inputs)
        fast_default = Engine(model, compile=True, precision="fast")
        fast_default.logits_many(inputs)  # default tier: fast
        np.testing.assert_array_equal(
            fast_default.logits_many(inputs, precision="exact"), baseline
        )

    def test_quantize_tape_leaves_source_untouched(self, rng):
        """The rewrite must not mutate the PR-7 tape it reads."""
        model = _mvgnn()
        x_semantic, x_structural, adj_norm, sizes = _packed(rng, (2, 5, 1))
        bindings = {
            "x_semantic": x_semantic,
            "x_structural": x_structural,
            "adj_norm": adj_norm,
            "sizes": sizes,
        }
        tape = record_forward(model, bindings)
        before = tape.execute(bindings)
        prims_before = [op.prim for op in tape.ops]
        quantize_tape(tape)
        assert [op.prim for op in tape.ops] == prims_before
        np.testing.assert_array_equal(tape.execute(bindings), before)


class TestFastDriftBounded:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_calibrated_drift_within_budget(self, rng, variant, sizes):
        model = _mvgnn_variant(variant)
        inputs = _graph_inputs(rng, sizes)
        engine = Engine(model, compile=True)
        engine.calibrate(inputs)
        exact = engine.logits_many(inputs, precision="exact")
        fast = engine.logits_many(inputs, precision="fast")
        assert fast.shape == exact.shape
        assert np.all(np.isfinite(fast))
        drift = np.max(np.abs(fast.astype(np.float64) - exact))
        assert drift <= DRIFT_TOL, f"max drift {drift:.4f} > {DRIFT_TOL}"

    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_uncalibrated_dynamic_scales_also_bounded(self, rng, sizes):
        """Without a calibration, fast tapes fall back to per-call dynamic
        abs-max scales — still finite and budget-bounded."""
        model = _mvgnn()
        inputs = _graph_inputs(rng, sizes)
        engine = Engine(model, compile=True)
        exact = engine.logits_many(inputs, precision="exact")
        fast = engine.logits_many(inputs, precision="fast")
        assert np.all(np.isfinite(fast))
        assert np.max(np.abs(fast.astype(np.float64) - exact)) <= DRIFT_TOL

    def test_one_calibration_serves_every_batch_shape(self, rng):
        """Scales are keyed by op position, and the op sequence is
        batch-size-invariant: one calibration covers all shape classes."""
        model = _mvgnn()
        engine = Engine(model, compile=True, batch_size=4)
        calibration = engine.calibrate(_graph_inputs(rng, (2, 5, 1, 3)))
        assert calibration.act_scales  # really recorded something
        for sizes in SIZE_SETS:
            inputs = _graph_inputs(rng, sizes)
            exact = engine.logits_many(
                inputs, batch_size=len(inputs), precision="exact"
            )
            fast = engine.logits_many(
                inputs, batch_size=len(inputs), precision="fast"
            )
            assert np.max(np.abs(fast.astype(np.float64) - exact)) <= DRIFT_TOL

    def test_mismatched_calibration_rejected(self, rng):
        """A calibration recorded against a different architecture must be
        refused, not silently misapplied."""
        from repro.errors import EngineError

        model = _mvgnn()
        inputs = _graph_inputs(rng, (2, 3))
        bogus = Calibration(
            prim_names=("matmul",), act_scales={0: 1.0}, param_scales={}
        )
        engine = Engine(model, compile=True, calibration=bogus)
        with pytest.raises(EngineError, match="recalibrate"):
            engine.logits_many(inputs, precision="fast")

    def test_quantizable_positions_found(self, rng):
        """The rewrite actually targets the hot contractions (dense matmul,
        adj_matmul, segment_sort_pool all appear in the MV-GNN tape)."""
        model = _mvgnn()
        x_semantic, x_structural, adj_norm, sizes = _packed(rng, (2, 5, 1))
        tape = record_forward(model, {
            "x_semantic": x_semantic,
            "x_structural": x_structural,
            "adj_norm": adj_norm,
            "sizes": sizes,
        })
        positions = quantizable_positions(tape)
        assert positions
        prims = {tape.ops[p].prim for p in positions}
        assert prims == {"matmul", "adj_matmul", "segment_sort_pool"}
        qtape = quantize_tape(tape)
        qprims = {op.prim for op in qtape.ops}
        assert {"qmatmul", "qadj_matmul", "qsegment_sort_pool"} <= qprims


class TestGeneratedSetAccuracy:
    """The headline gate: trained-model accuracy on the tiny dataset's
    generated split, fast vs float, within 0.5 points."""

    @pytest.fixture(scope="class")
    def trained(self):
        from repro.dataset.assemble import DatasetConfig, assemble_dataset
        from repro.train import MVGNNAdapter, TrainConfig, train_model

        data = assemble_dataset(DatasetConfig.tiny(seed=7))
        sem_dim = data.train[0].x_semantic.shape[1]
        walk_dim = data.train[0].x_structural.shape[1]
        config = MVGNNConfig(
            semantic_features=sem_dim,
            walk_types=walk_dim,
            view_features=16,
            node_view=DGCNNConfig(in_features=sem_dim, sortpool_k=6),
            struct_view=DGCNNConfig(in_features=16, sortpool_k=6),
        )
        adapter = MVGNNAdapter(config, rng=0)
        train_model(
            adapter, data.train,
            TrainConfig(epochs=4, lr=2e-3, batch_size=16, sortpool_k=6,
                        seed=0),
        )
        engine = Engine(adapter.model, compile=True, batch_size=32)
        # calibration shard: the training split (held out from generated)
        engine.calibrate(list(data.train), batch_size=32)
        return engine, list(data.generated)

    def test_accuracy_within_half_point(self, trained):
        engine, generated = trained
        labels = np.array([s.label for s in generated])
        exact_pred = engine.predict_many(generated, precision="exact")
        fast_pred = engine.predict_many(generated, precision="fast")
        exact_acc = float(np.mean(exact_pred == labels))
        fast_acc = float(np.mean(fast_pred == labels))
        assert abs(fast_acc - exact_acc) <= ACCURACY_GAP, (
            f"generated-set accuracy gap "
            f"{abs(fast_acc - exact_acc):.4f} > {ACCURACY_GAP} "
            f"(exact {exact_acc:.4f}, fast {fast_acc:.4f})"
        )

    def test_per_sample_drift_bounded_on_trained_model(self, trained):
        engine, generated = trained
        exact = engine.logits_many(generated, precision="exact")
        fast = engine.logits_many(generated, precision="fast")
        assert np.all(np.isfinite(fast))
        drift = np.max(np.abs(fast.astype(np.float64) - exact))
        assert drift <= DRIFT_TOL, f"max drift {drift:.4f} > {DRIFT_TOL}"

    def test_fast_stats_ledger(self, trained):
        engine, generated = trained
        before = engine.stats.fast_batches
        engine.predict_many(generated[:5], precision="fast", batch_size=5)
        assert engine.stats.fast_batches == before + 1
        engine.predict_many(generated[:5], precision="exact", batch_size=5)
        assert engine.stats.fast_batches == before + 1
