"""Batched runtime: GraphBatch packing, ragged packs vs one-graph packs,
and Engine.predict_many over LoopSamples (raw sub-PEGs are rejected)."""

import numpy as np
import pytest

from repro.dataset.extraction import extract_loop_samples
from repro.errors import EngineError
from repro.models.dgcnn import DGCNN, DGCNNConfig
from repro.models.mvgnn import MVGNN, MVGNNConfig
from repro.nn.batching import block_diagonal_adjacency
from repro.nn.layers import normalized_adjacency
from repro.nn.tensor import no_grad
from repro.peg.builder import build_peg
from repro.peg.subgraph import all_loop_subpegs
from repro.profiler import profile_program
from repro.runtime import Engine, FeatureCache, GraphBatch, iter_chunks
from repro.train.data import cached_loop_samples
from repro.utils.cache import DiskCache

from tests.helpers import build_mixed_program, lower_and_verify


def _random_graph(rng, n, features):
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    return rng.normal(size=(n, features)), adj


def _mvgnn(rng_seed=0):
    config = MVGNNConfig(
        semantic_features=12,
        walk_types=5,
        view_features=8,
        node_view=DGCNNConfig(in_features=12, sortpool_k=6),
        struct_view=DGCNNConfig(in_features=8, sortpool_k=6),
    )
    model = MVGNN(config, rng=rng_seed)
    model.eval()
    return model


def _alone(model, x, adj, walks=None):
    """Logits of one graph packed alone, shape ``(num_classes,)``."""
    inputs = (x,) if walks is None else (x, walks)
    return model.forward_batch(
        *inputs, block_diagonal_adjacency([adj]), [x.shape[0]]
    ).data[0]


def _ragged_inputs(rng, sizes=(1, 3, 8, 40, 2, 1)):
    graphs = [_random_graph(rng, n, 12) for n in sizes]
    walks = [rng.dirichlet(np.ones(5), size=x.shape[0]) for x, _ in graphs]
    return graphs, walks


class TestGraphBatch:
    def test_packing_layout(self, rng):
        graphs, walks = _ragged_inputs(rng, sizes=(2, 5, 1))
        batch = GraphBatch.from_arrays(
            [x for x, _ in graphs], walks, [a for _, a in graphs]
        )
        assert batch.num_graphs == 3
        assert batch.num_nodes == 8
        assert list(batch.offsets) == [0, 2, 7, 8]
        np.testing.assert_allclose(
            batch.x_semantic[2:7], graphs[1][0]
        )

    def test_row_count_mismatch_rejected(self, rng):
        x, adj = _random_graph(rng, 4, 12)
        with pytest.raises(EngineError):
            GraphBatch.from_arrays([x[:3]], [x[:, :5]], [adj])

    def test_empty_batch_rejected(self):
        with pytest.raises(EngineError):
            GraphBatch.from_arrays([], [], [])

    def test_iter_chunks(self):
        assert [list(c) for c in iter_chunks(list(range(5)), 2)] == [
            [0, 1], [2, 3], [4]
        ]
        with pytest.raises(EngineError):
            list(iter_chunks([1], 0))


class TestBatchedEquivalence:
    def test_dgcnn_batched_matches_per_graph_ragged(self, rng):
        model = DGCNN(DGCNNConfig(in_features=12, sortpool_k=6), rng=0)
        model.eval()
        graphs, _ = _ragged_inputs(rng)
        with no_grad():
            singles = np.stack([_alone(model, x, a) for x, a in graphs])
            packed = model.forward_batch(
                np.concatenate([x for x, _ in graphs]),
                block_diagonal_adjacency([a for _, a in graphs]),
                [x.shape[0] for x, _ in graphs],
            ).data
        np.testing.assert_allclose(packed, singles, atol=1e-10)

    def test_mvgnn_batched_matches_per_graph_ragged(self, rng):
        model = _mvgnn()
        graphs, walks = _ragged_inputs(rng)
        with no_grad():
            singles = np.stack(
                [_alone(model, x, a, w) for (x, a), w in zip(graphs, walks)]
            )
            packed = model.forward_batch(
                np.concatenate([x for x, _ in graphs]),
                np.concatenate(walks),
                block_diagonal_adjacency([a for _, a in graphs]),
                [x.shape[0] for x, _ in graphs],
            ).data
        np.testing.assert_allclose(packed, singles, atol=1e-10)

    def test_mvgnn_fusion_hidden_batched(self, rng):
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
        graphs, walks = _ragged_inputs(rng, sizes=(3, 1, 7))
        with no_grad():
            singles = np.stack(
                [_alone(model, x, a, w) for (x, a), w in zip(graphs, walks)]
            )
            packed = model.forward_batch(
                np.concatenate([x for x, _ in graphs]),
                np.concatenate(walks),
                block_diagonal_adjacency([a for _, a in graphs]),
                [x.shape[0] for x, _ in graphs],
            ).data
        np.testing.assert_allclose(packed, singles, atol=1e-10)

    def test_single_graph_batch_matches(self, rng):
        """A one-graph pack over the dense normalized adjacency (what the
        LSTM ablation and pretraining pass) equals the sparse block pack."""
        model = _mvgnn()
        graphs, walks = _ragged_inputs(rng, sizes=(5,))
        (x, adj) = graphs[0]
        with no_grad():
            single = _alone(model, x, adj, walks[0])
            dense = model.forward_batch(
                x, walks[0], normalized_adjacency(adj), [5]
            ).data
        np.testing.assert_allclose(dense[0], single, atol=1e-10)


class TestEngine:
    @pytest.fixture()
    def extracted(self, tiny_inst2vec, walk_space):
        program = build_mixed_program()
        samples = extract_loop_samples(
            program, None, tiny_inst2vec, walk_space,
            suite="t", app="mixed", gamma=10, rng=0,
        )
        return samples

    def _model_for(self, samples, walk_space):
        config = MVGNNConfig(
            semantic_features=samples[0].x_semantic.shape[1],
            walk_types=walk_space.num_types,
            node_view=DGCNNConfig(
                in_features=samples[0].x_semantic.shape[1], sortpool_k=6
            ),
            struct_view=DGCNNConfig(in_features=200, sortpool_k=6),
        )
        model = MVGNN(config, rng=0)
        model.eval()
        return model

    def test_predict_many_matches_per_graph(
        self, extracted, walk_space, tmp_path
    ):
        model = self._model_for(extracted, walk_space)
        with no_grad():
            expected = [
                int(np.argmax(
                    _alone(model, s.x_semantic, s.adjacency, s.x_structural)
                ))
                for s in extracted
            ]
        engine = Engine(
            model, cache=FeatureCache(DiskCache(tmp_path)), batch_size=3
        )
        predicted = engine.predict_many(extracted)
        assert list(predicted) == expected

    def test_batch_size_does_not_change_predictions(
        self, extracted, walk_space, tmp_path
    ):
        model = self._model_for(extracted, walk_space)
        engine = Engine(model, cache=FeatureCache(DiskCache(tmp_path)))
        baseline = engine.logits_many(extracted, batch_size=1)
        for size in (2, 3, 64):
            np.testing.assert_allclose(
                engine.logits_many(extracted, batch_size=size),
                baseline,
                atol=1e-10,
            )

    def test_subpeg_inputs_use_feature_cache(
        self, extracted, tiny_inst2vec, walk_space, tmp_path
    ):
        """Sub-PEGs reach the engine as LoopSamples featurized through the
        FeatureCache; re-featurizing hits it, and the engine's normalized
        adjacency memo skips the repeat graphs."""
        program = build_mixed_program()
        cache = FeatureCache(DiskCache(tmp_path))

        def featurize():
            return cached_loop_samples(
                program, None, tiny_inst2vec, walk_space, cache,
                suite="t", app="mixed", gamma=10,
            )

        first_samples = featurize()
        assert cache.snapshot() == (0, 2 * len(first_samples))
        second_samples = featurize()
        assert cache.snapshot() == (
            2 * len(first_samples), 2 * len(first_samples)
        )

        model = self._model_for(extracted, walk_space)
        engine = Engine(model, cache=cache)
        first = engine.predict_many(first_samples)
        hits, misses = cache.adj_hits, cache.adj_misses
        assert hits + misses == len(first_samples) and misses >= 1
        second = engine.predict_many(second_samples)
        np.testing.assert_array_equal(first, second)
        assert (cache.adj_hits, cache.adj_misses) == (
            hits + len(second_samples), misses
        )

    def test_subpeg_without_extractors_rejected(
        self, extracted, walk_space, tmp_path
    ):
        """A raw sub-PEG is not an engine input: featurize it first."""
        program = build_mixed_program()
        ir = lower_and_verify(program)
        peg = build_peg(ir, profile_program(ir))
        subpeg = next(iter(all_loop_subpegs(peg).values()))
        model = self._model_for(extracted, walk_space)
        engine = Engine(model, cache=FeatureCache(DiskCache(tmp_path)))
        with pytest.raises(EngineError, match="LoopSample or GraphInput"):
            engine.predict_many([subpeg])
        with pytest.raises(EngineError):
            engine.predict_many(extracted[:1] + [subpeg])

    def test_unsupported_input_rejected(self, extracted, walk_space, tmp_path):
        model = self._model_for(extracted, walk_space)
        engine = Engine(model, cache=FeatureCache(DiskCache(tmp_path)))
        with pytest.raises(EngineError):
            engine.predict_many(["not a loop"])

    def test_empty_input_ok(self, extracted, walk_space, tmp_path):
        model = self._model_for(extracted, walk_space)
        engine = Engine(model, cache=FeatureCache(DiskCache(tmp_path)))
        assert engine.predict_many([]).shape == (0,)

    def test_training_mode_restored(self, extracted, walk_space, tmp_path):
        model = self._model_for(extracted, walk_space)
        model.train()
        engine = Engine(model, cache=FeatureCache(DiskCache(tmp_path)))
        engine.predict_many(extracted[:2])
        assert model.training

    def test_stats_accumulate(self, extracted, walk_space, tmp_path):
        model = self._model_for(extracted, walk_space)
        engine = Engine(
            model, cache=FeatureCache(DiskCache(tmp_path)), batch_size=2
        )
        engine.predict_many(extracted)
        assert engine.stats.graphs == len(extracted)
        assert engine.stats.batches == 2
        assert engine.stats.graphs_per_sec > 0
        assert "graphs/sec" in engine.stats.summary()

    def test_invalid_batch_size_rejected(self, extracted, walk_space, tmp_path):
        model = self._model_for(extracted, walk_space)
        with pytest.raises(EngineError):
            Engine(model, batch_size=0)
        engine = Engine(model, cache=FeatureCache(DiskCache(tmp_path)))
        with pytest.raises(EngineError):
            engine.predict_many(extracted, batch_size=-1)
