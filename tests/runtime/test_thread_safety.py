"""Engine + FeatureCache under concurrent predict_many callers.

The serving layer (repro.serve) drives one shared Engine from a thread
executor, so concurrent calls must produce the same labels as serial ones
and keep statistics exact.  These are regression tests for the
state-lock / eval-restore / cache-counter machinery in
repro.runtime.engine and repro.runtime.features.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataset.extraction import extract_loop_samples
from repro.models.dgcnn import DGCNNConfig
from repro.models.mvgnn import MVGNN, MVGNNConfig
from repro.runtime import Engine, FeatureCache, GraphInput
from repro.utils.cache import DiskCache

from tests.helpers import build_mixed_program

THREADS = 8
ROUNDS = 6


def _random_graphs(rng, count, sem=12, walks=5):
    graphs = []
    for pos in range(count):
        n = int(rng.integers(2, 9))
        adjacency = (rng.random((n, n)) < 0.4).astype(float)
        adjacency = np.maximum(adjacency, adjacency.T)
        np.fill_diagonal(adjacency, 0.0)
        graphs.append(GraphInput(
            x_semantic=rng.normal(size=(n, sem)),
            x_structural=rng.dirichlet(np.ones(walks), size=n),
            adjacency=adjacency,
            graph_id=f"g{pos}",
        ))
    return graphs


def _tiny_engine():
    config = MVGNNConfig(
        semantic_features=12,
        walk_types=5,
        view_features=8,
        node_view=DGCNNConfig(in_features=12, sortpool_k=6),
        struct_view=DGCNNConfig(in_features=8, sortpool_k=6),
    )
    model = MVGNN(config, rng=0)
    model.eval()
    return Engine(model, batch_size=4)


class TestConcurrentPredict:
    def test_concurrent_graph_inputs_match_serial(self, rng):
        """Hammer one Engine from THREADS threads: every call returns the
        serial answer and the stats ledger stays exact."""
        engine = _tiny_engine()
        worklists = [
            _random_graphs(rng, 5 + pos % 3) for pos in range(THREADS)
        ]
        serial = [list(engine.predict_many(w)) for w in worklists]
        baseline_graphs = engine.stats.graphs

        def worker(pos):
            results = []
            for _ in range(ROUNDS):
                results.append(list(engine.predict_many(worklists[pos])))
            return results

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(worker, range(THREADS)))

        for pos, rounds in enumerate(outcomes):
            for labels in rounds:
                assert labels == serial[pos]
        expected_graphs = baseline_graphs + ROUNDS * sum(
            len(w) for w in worklists
        )
        assert engine.stats.graphs == expected_graphs
        assert engine.stats.seconds > 0

    def test_eval_mode_restored_after_concurrent_calls(self, rng):
        """A training-mode model is flipped to eval for inference and
        restored once the last concurrent call exits."""
        engine = _tiny_engine()
        engine.model.train()
        graphs = _random_graphs(rng, 4)

        def worker(_):
            return list(engine.predict_many(graphs))

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(worker, range(THREADS)))

        assert engine.model.training  # restored
        engine.model.eval()
        serial = list(engine.predict_many(graphs))
        assert all(labels == serial for labels in outcomes)

    def test_concurrent_subpeg_cache_counters_consistent(
        self, tiny_inst2vec, walk_space, tmp_path
    ):
        """Featurized sub-PEGs through one shared FeatureCache are exact
        under concurrency: identical labels, and the normalized-block memo
        accounts for every lookup."""
        samples = extract_loop_samples(
            build_mixed_program(), None, tiny_inst2vec, walk_space,
            suite="t", app="mixed", gamma=10, rng=0,
        )
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
        cache = FeatureCache(DiskCache(tmp_path))
        engine = Engine(model, cache=cache)
        serial = list(engine.predict_many(samples))
        distinct = cache.adj_misses

        def worker(_):
            return list(engine.predict_many(samples))

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(worker, range(THREADS)))

        assert all(labels == serial for labels in outcomes)
        # every lookup is accounted for: one normalized block per graph per
        # call, across the serial warm-up and all concurrent calls
        total_lookups = len(samples) * (1 + THREADS)
        assert cache.adj_hits + cache.adj_misses == total_lookups
        # the warm-up populated the memo, so the concurrent calls all hit
        assert cache.adj_misses == distinct
        assert cache.snapshot() == (0, 0)
        assert engine.stats.graphs == len(samples) * (1 + THREADS)

    def test_mixed_input_kinds_concurrently(self, rng):
        """LoopSample-free mix: GraphInputs of different sizes from many
        threads with different batch sizes."""
        engine = _tiny_engine()
        graphs = _random_graphs(rng, 9)
        serial = list(engine.predict_many(graphs, batch_size=3))

        def worker(pos):
            return list(
                engine.predict_many(graphs, batch_size=1 + pos % 4)
            )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(worker, range(THREADS)))

        assert all(labels == serial for labels in outcomes)


class TestFeatureCacheLock:
    def test_counter_increments_are_atomic(self, tmp_path):
        """Raw hammer on _get_or_compute: hits + misses is conserved."""
        cache = FeatureCache(DiskCache(tmp_path))
        value = np.ones((2, 2))
        calls_per_thread = 200

        def worker(pos):
            for call in range(calls_per_thread):
                cache._get_or_compute(
                    f"k{(pos * calls_per_thread + call) % 10}",
                    lambda: value,
                )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, range(THREADS)))

        hits, misses = cache.snapshot()
        assert hits + misses == THREADS * calls_per_thread
        # only the cold keys can miss; racing double-computes are benign
        # but bounded by the thread count per key
        assert misses <= 10 * THREADS
        assert hits >= THREADS * calls_per_thread - 10 * THREADS
