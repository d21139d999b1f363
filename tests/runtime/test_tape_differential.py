"""Differential wall: the tape-compiled forward/backward vs the reference.

Forward: for every fixture configuration (architectures — MV-GNN, DGCNN
and both Fig. 8 single-view LSTM models — x batch-shape classes, including
1-node graphs and single-graph packs) the recorded
tape — interpreted unfused, fused, and fused-with-reused-buffers — must
be **byte-identical** to ``forward_batch``.  Backward: the tape's
mechanical VJP sweep must match the eager ``Tensor.backward`` sweep to
<= 1e-6 for every parameter, in eval and training (dropout) modes.  Both
sweeps call the one VJP table in :mod:`repro.nn.primitives`; the
finite-difference gradchecks in ``tests/nn`` are the independent oracle
for the VJPs themselves.
"""

import numpy as np
import pytest

from repro.dataset.extraction import extract_loop_samples
from repro.dataset.types import LoopSample
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.models.mvgnn import MVGNN, MVGNNConfig
from repro.models.single_view import SingleViewModel
from repro.nn.batching import block_diagonal_adjacency
from repro.nn.functional import softmax_cross_entropy_batch
from repro.nn.tensor import no_grad
from repro.runtime import Engine, TapeExecutor
from repro.runtime.engine import GraphInput
from repro.runtime.tape import record_tape
from repro.train.adapters import DGCNNAdapter, MVGNNAdapter, SingleViewAdapter

from tests.helpers import build_mixed_program
from tests.runtime.test_engine import _mvgnn, _ragged_inputs, _random_graph

GRAD_TOL = 1e-6

#: every batch-shape class the differential wall covers: a single graph, a
#: single *node*, all-1-node packs, ragged mixes, and uniform packs
SIZE_SETS = [
    (1,),
    (5,),
    (1, 1),
    (1, 3, 8, 40, 2, 1),
    (4, 4, 4),
]


def _mvgnn_variant(name):
    if name == "default":
        return _mvgnn()
    if name == "fusion_hidden":
        config = MVGNNConfig(
            semantic_features=12,
            walk_types=5,
            view_features=8,
            fusion_hidden=8,
            node_view=DGCNNConfig(in_features=12, sortpool_k=6),
            struct_view=DGCNNConfig(in_features=8, sortpool_k=6),
        )
        model = MVGNN(config, rng=0)
        model.eval()
        return model
    if name == "small_k":
        config = MVGNNConfig(
            semantic_features=12,
            walk_types=5,
            view_features=8,
            node_view=DGCNNConfig(in_features=12, sortpool_k=2),
            struct_view=DGCNNConfig(in_features=8, sortpool_k=2),
        )
        model = MVGNN(config, rng=0)
        model.eval()
        return model
    raise AssertionError(name)


def record_forward(model, bindings):
    """Record ``model.forward_batch`` on ``bindings`` (argument name ->
    value); ``adj_norm`` and ``sizes`` are bound as structure inputs."""
    objects = {name: bindings[name] for name in ("adj_norm", "sizes")}
    arrays = {k: v for k, v in bindings.items() if k not in objects}
    return record_tape(
        model.forward_batch, arrays, objects, model.named_parameters()
    )


def _single_view(view):
    """A Fig. 8 single-view model over 12 node features or 5 walk types."""
    if view == "node":
        return SingleViewModel(
            "node", DGCNNConfig(in_features=12, sortpool_k=6), rng=0
        ).eval()
    return SingleViewModel(
        "structural", DGCNNConfig(in_features=8, sortpool_k=6), rng=0
    ).with_projection(5, rng=1).eval()


def _packed(rng, sizes):
    graphs, walks = _ragged_inputs(rng, sizes=sizes)
    x_semantic = np.concatenate([x for x, _ in graphs])
    x_structural = np.concatenate(walks)
    # block_diagonal_adjacency row-normalizes each block (D̃⁻¹Ã)
    adj_norm = block_diagonal_adjacency([a for _, a in graphs])
    return x_semantic, x_structural, adj_norm, list(sizes)


class TestForwardByteIdentity:
    @pytest.mark.parametrize("variant", ["default", "fusion_hidden", "small_k"])
    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_mvgnn_tape_matches_forward_batch(self, rng, variant, sizes):
        model = _mvgnn_variant(variant)
        x_semantic, x_structural, adj_norm, size_list = _packed(rng, sizes)
        with no_grad():
            expected = model.forward_batch(
                x_semantic, x_structural, adj_norm, size_list
            ).data
        bindings = {
            "x_semantic": x_semantic,
            "x_structural": x_structural,
            "adj_norm": adj_norm,
            "sizes": size_list,
        }
        tape = record_forward(model, bindings)
        # unfused reference interpretation
        np.testing.assert_array_equal(tape.execute(bindings), expected)
        # fused executor, cold buffers
        executor = TapeExecutor(tape)
        buffers = executor.new_buffers()
        np.testing.assert_array_equal(
            executor.run(bindings, buffers), expected
        )
        # fused executor, warm (reused) buffers
        np.testing.assert_array_equal(
            executor.run(bindings, buffers), expected
        )

    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_dgcnn_tape_matches_forward_batch(self, rng, sizes):
        model = DGCNN(DGCNNConfig(in_features=12, sortpool_k=6), rng=0)
        model.eval()
        graphs, _ = _ragged_inputs(rng, sizes=sizes)
        x = np.concatenate([g for g, _ in graphs])
        adj_norm = block_diagonal_adjacency([a for _, a in graphs])
        with no_grad():
            expected = model.forward_batch(x, adj_norm, list(sizes)).data
        bindings = {"x": x, "adj_norm": adj_norm, "sizes": list(sizes)}
        tape = record_forward(model, bindings)
        np.testing.assert_array_equal(tape.execute(bindings), expected)
        np.testing.assert_array_equal(
            TapeExecutor(tape).run(bindings, None), expected
        )

    @pytest.mark.parametrize("view", ["node", "structural"])
    @pytest.mark.parametrize("sizes", SIZE_SETS)
    def test_single_view_tape_matches_forward_batch(self, rng, view, sizes):
        model = _single_view(view)
        x_semantic, x_structural, adj_norm, size_list = _packed(rng, sizes)
        x = x_semantic if view == "node" else x_structural
        with no_grad():
            expected = model.forward_batch(x, adj_norm, size_list).data
        bindings = {"x": x, "adj_norm": adj_norm, "sizes": size_list}
        tape = record_forward(model, bindings)
        np.testing.assert_array_equal(tape.execute(bindings), expected)
        np.testing.assert_array_equal(
            TapeExecutor(tape).run(bindings, None), expected
        )

    def test_one_tape_serves_other_node_counts(self, rng):
        """The tape is keyed by B only: replaying the 3-graph recording on a
        batch with different node counts must still be byte-identical."""
        model = _mvgnn()
        x_semantic, x_structural, adj_norm, size_list = _packed(rng, (2, 5, 1))
        tape = record_forward(model, {
            "x_semantic": x_semantic,
            "x_structural": x_structural,
            "adj_norm": adj_norm,
            "sizes": size_list,
        })
        executor = TapeExecutor(tape)
        buffers = executor.new_buffers()
        for sizes in ((7, 1, 3), (1, 1, 1), (10, 20, 5)):
            x_semantic, x_structural, adj_norm, size_list = _packed(rng, sizes)
            with no_grad():
                expected = model.forward_batch(
                    x_semantic, x_structural, adj_norm, size_list
                ).data
            bindings = {
                "x_semantic": x_semantic,
                "x_structural": x_structural,
                "adj_norm": adj_norm,
                "sizes": size_list,
            }
            np.testing.assert_array_equal(tape.execute(bindings), expected)
            np.testing.assert_array_equal(
                executor.run(bindings, buffers), expected
            )


class TestEngineByteIdentity:
    def _graph_inputs(self, rng, sizes):
        graphs, walks = _ragged_inputs(rng, sizes=sizes)
        return [
            GraphInput(
                x_semantic=x, x_structural=w, adjacency=a,
                graph_id=f"g{pos}",
            )
            for pos, ((x, a), w) in enumerate(zip(graphs, walks))
        ]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
    def test_predict_many_compiled_vs_interpreted(self, rng, batch_size):
        model = _mvgnn()
        inputs = self._graph_inputs(rng, (1, 3, 8, 40, 2, 1, 1, 5))
        interpreted = Engine(model, compile=False)
        compiled = Engine(model, compile=True)
        np.testing.assert_array_equal(
            compiled.logits_many(inputs, batch_size=batch_size),
            interpreted.logits_many(inputs, batch_size=batch_size),
        )
        assert compiled.stats.compiled_batches > 0
        assert interpreted.stats.compiled_batches == 0

    def test_repeat_calls_reuse_tapes_and_buffers(self, rng):
        model = _mvgnn()
        inputs = self._graph_inputs(rng, (2, 4, 6))
        engine = Engine(model, compile=True, batch_size=3)
        first = engine.logits_many(inputs)
        assert len(engine._tapes) == 1
        second = engine.logits_many(inputs)
        np.testing.assert_array_equal(first, second)
        assert len(engine._tapes) == 1
        # a returned row is a copy: mutating it must not corrupt reruns
        first[...] = -1.0
        np.testing.assert_array_equal(engine.logits_many(inputs), second)

    def test_warm_up_records_tapes(self):
        model = _mvgnn()
        engine = Engine(model, compile=True, batch_size=4)
        built = engine.warm_up(batch_sizes=(2,))
        assert built == 3                      # {1, 2, 4}
        assert set(engine._tapes) == {1, 2, 4}
        # synthetic warm-up packs never pollute the stats ledger (the
        # fleet reports worker stats; graphs must count real inputs only)
        assert engine.stats.graphs == 0
        assert engine.stats.batches == 0
        assert engine.stats.compiled_batches == 0
        assert Engine(model, compile=False).warm_up() == 0


def _synthetic_samples(rng, sizes, sem_dim=12, walk_dim=5):
    samples = []
    for pos, n in enumerate(sizes):
        x, adj = _random_graph(rng, n, sem_dim)
        walks = rng.dirichlet(np.ones(walk_dim), size=n)
        samples.append(LoopSample(
            sample_id=f"syn/{pos}",
            loop_id=f"L{pos}",
            program_name="syn",
            app="syn",
            suite="Generated",
            label=int(pos % 2),
            adjacency=adj,
            x_semantic=x,
            x_structural=walks,
            statements=["noop"],
            loop_features=np.zeros(7),
        ))
    return samples


def _grad_snapshot(adapter):
    return {
        name: None if p.grad is None else np.array(p.grad)
        for name, p in adapter.module.named_parameters().items()
    }


def _config_for(samples, dropout=0.0):
    sem_dim = samples[0].x_semantic.shape[1]
    walk_dim = samples[0].x_structural.shape[1]
    return MVGNNConfig(
        semantic_features=sem_dim,
        walk_types=walk_dim,
        view_features=8,
        node_view=DGCNNConfig(in_features=sem_dim, sortpool_k=6, dropout=dropout),
        struct_view=DGCNNConfig(in_features=8, sortpool_k=6, dropout=dropout),
    )


def eager_logits(adapter, samples):
    """The model's own ``forward_batch`` on the adapter's pack (no tape)."""
    pack = adapter._pack(samples)
    if isinstance(adapter.model, MVGNN):
        return adapter.model.forward_batch(
            pack.x_semantic, pack.x_structural, pack.adj_norm, pack.sizes
        )
    return adapter.model.forward_batch(pack.x_semantic, pack.adj_norm, pack.sizes)


def eager_loss_and_correct(adapter, samples, temperature):
    """The eager reference of ``loss_and_correct_batched``: the summed loss
    of :func:`eager_logits`, ready for ``Tensor.backward``."""
    logits = eager_logits(adapter, samples)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    loss = softmax_cross_entropy_batch(
        logits, labels, temperature, reduction="sum"
    )
    correct = int((np.argmax(logits.data, axis=1) == labels).sum())
    return loss, correct


class TestBackwardDifferential:
    """Tape gradients vs the eager autograd sweep on identical minibatches."""

    def _compare(self, make_adapter, samples, training):
        reference = make_adapter()
        compiled = make_adapter()
        for adapter, route in (
            (reference, eager_loss_and_correct),
            (compiled, type(compiled).loss_and_correct_batched),
        ):
            if training:
                adapter.module.train()
            else:
                adapter.module.eval()
            loss, correct = route(adapter, samples, 0.5)
            loss.backward()
            adapter._last = (loss.item(), correct)

        assert reference._last == compiled._last
        ref_grads = _grad_snapshot(reference)
        comp_grads = _grad_snapshot(compiled)
        assert set(ref_grads) == set(comp_grads)
        for name, ref in ref_grads.items():
            comp = comp_grads[name]
            assert (ref is None) == (comp is None), name
            if ref is not None:
                np.testing.assert_allclose(
                    comp, ref, rtol=0.0, atol=GRAD_TOL, err_msg=name
                )

    @pytest.mark.parametrize("sizes", [(1,), (1, 1), (3, 1, 8, 2)])
    def test_mvgnn_eval_gradients(self, rng, sizes):
        samples = _synthetic_samples(rng, sizes)
        config = _config_for(samples)
        self._compare(
            lambda: MVGNNAdapter(config, rng=7), samples, training=False
        )

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_mvgnn_dropout_gradients(self, rng, seed):
        """Training mode: dropout masks draw from the live layer rngs at
        execution, so two same-seed adapters must agree exactly."""
        samples = _synthetic_samples(rng, (4, 1, 6))
        config = _config_for(samples, dropout=0.4)
        self._compare(
            lambda: MVGNNAdapter(config, rng=seed), samples, training=True
        )

    def test_dgcnn_gradients(self, rng):
        samples = _synthetic_samples(rng, (2, 5, 1))
        config = DGCNNConfig(
            in_features=samples[0].x_semantic.shape[1], sortpool_k=6,
            dropout=0.3,
        )
        self._compare(
            lambda: DGCNNAdapter(config, rng=3), samples, training=True
        )

    @pytest.mark.parametrize("view", ["node", "structural"])
    def test_single_view_gradients(self, rng, view):
        samples = _synthetic_samples(rng, (3, 1, 8, 2))
        config = DGCNNConfig(
            in_features=12 if view == "node" else 8, sortpool_k=6
        )
        self._compare(
            lambda: SingleViewAdapter(view, config, walk_types=5, rng=4),
            samples, training=True,
        )

    def test_tapes_keyed_by_mode_and_batch(self, rng):
        samples = _synthetic_samples(rng, (2, 3, 4, 5))
        adapter = MVGNNAdapter(_config_for(samples, dropout=0.2), rng=0)
        adapter.module.train()
        adapter.loss_and_correct_batched(samples[:2], 0.5)
        adapter.loss_and_correct_batched(samples, 0.5)
        adapter.module.eval()
        with no_grad():
            adapter.predict(samples)
        assert (2, True) in adapter._tapes
        assert (4, True) in adapter._tapes
        assert (4, False) in adapter._tapes


class TestExtractedSamples:
    """The wall also runs on real pipeline-extracted samples."""

    @pytest.fixture()
    def extracted(self, tiny_inst2vec, walk_space):
        return extract_loop_samples(
            build_mixed_program(), None, tiny_inst2vec, walk_space,
            suite="t", app="mixed", gamma=10, rng=0,
        )

    def test_engine_paths_identical(self, extracted, walk_space):
        config = MVGNNConfig(
            semantic_features=extracted[0].x_semantic.shape[1],
            walk_types=walk_space.num_types,
            node_view=DGCNNConfig(
                in_features=extracted[0].x_semantic.shape[1], sortpool_k=6
            ),
            struct_view=DGCNNConfig(in_features=200, sortpool_k=6),
        )
        model = MVGNN(config, rng=0)
        model.eval()
        np.testing.assert_array_equal(
            Engine(model, compile=True, batch_size=3).logits_many(extracted),
            Engine(model, compile=False, batch_size=3).logits_many(extracted),
        )

    def test_adapter_gradients_on_extracted(self, extracted):
        config = MVGNNConfig(
            semantic_features=extracted[0].x_semantic.shape[1],
            walk_types=extracted[0].x_structural.shape[1],
            view_features=8,
            node_view=DGCNNConfig(
                in_features=extracted[0].x_semantic.shape[1], sortpool_k=6
            ),
            struct_view=DGCNNConfig(in_features=8, sortpool_k=6),
        )
        TestBackwardDifferential()._compare(
            lambda: MVGNNAdapter(config, rng=0), list(extracted),
            training=False,
        )
