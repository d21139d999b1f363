"""One featurizer: dataset extraction and the training cache agree.

:func:`repro.dataset.extraction.extract_loop_samples` (walks from one
generator threaded through the loops, tool votes attached) and
:func:`repro.train.data.cached_loop_samples` (both matrices through the
runtime ``FeatureCache`` with a fixed walk seed, no tool votes) turn the
same sub-PEGs into arrays.  Everything but the walk draws must therefore
be equal, and the cached walks must be the cache's own.
"""

import numpy as np
import pytest

from repro.analysis.features import attach_node_features
from repro.benchsuite import build_app
from repro.dataset.extraction import extract_loop_samples
from repro.peg.builder import build_peg
from repro.peg.subgraph import all_loop_subpegs
from repro.profiler import profile_program
from repro.runtime import FeatureCache
from repro.train.data import cached_loop_samples, cached_samples_for_programs
from repro.utils.cache import DiskCache

from tests.helpers import (
    build_doall_program,
    build_mixed_program,
    build_reduction_program,
    build_sequential_program,
    lower_and_verify,
)

GAMMA = 10
WALK_SEED = 3


def _program_set():
    """(program, labels) pairs: the canonical test programs, labelled by
    the oracle, and the small apps' programs with their spec labels."""
    items = [
        (build(), None)
        for build in (build_doall_program, build_sequential_program,
                      build_reduction_program, build_mixed_program)
    ]
    for app in ("fib", "nqueens"):
        spec = build_app(app)
        for program in spec.programs:
            items.append((program, {
                loop_id: loop.label for loop_id, loop in spec.loops.items()
                if loop.program_name == program.name
            }))
    return items


@pytest.fixture(scope="module")
def program_set():
    return _program_set()


@pytest.fixture(scope="module")
def both_paths(program_set, tiny_inst2vec, walk_space, tmp_path_factory):
    cache = FeatureCache(DiskCache(tmp_path_factory.mktemp("featurizer")))
    pairs = []
    for program, labels in program_set:
        extracted = extract_loop_samples(
            program, labels, tiny_inst2vec, walk_space,
            suite="t", app="set", gamma=GAMMA, rng=0,
        )
        cached = cached_loop_samples(
            program, labels, tiny_inst2vec, walk_space, cache,
            suite="t", app="set", gamma=GAMMA, walk_seed=WALK_SEED,
        )
        pairs.append((program, extracted, cached))
    return pairs


def test_every_loop_is_featurized_alike(both_paths):
    loops = 0
    for _program, extracted, cached in both_paths:
        assert [s.sample_id for s in cached] == [s.sample_id for s in extracted]
        for want, got in zip(extracted, cached):
            assert got.loop_id == want.loop_id
            assert got.program_name == want.program_name
            assert got.label == want.label
            assert np.array_equal(got.adjacency, want.adjacency)
            assert np.array_equal(got.x_semantic, want.x_semantic)
            assert got.statements == want.statements
            assert np.array_equal(got.loop_features, want.loop_features)
            assert got.x_structural.shape == want.x_structural.shape
            loops += 1
    assert loops >= 10


def test_only_extraction_carries_tool_votes(both_paths):
    for _program, extracted, cached in both_paths:
        for want, got in zip(extracted, cached):
            assert set(want.tool_votes) == {"Pluto", "AutoPar", "DiscoPoP"}
            assert got.tool_votes == {}
            assert got.meta == {"variant": "O0", "features": "cached"}


def test_cached_walks_are_the_cache_entries(
    both_paths, walk_space, tmp_path
):
    fresh = FeatureCache(DiskCache(tmp_path))
    for program, _extracted, cached in both_paths:
        ir = lower_and_verify(program)
        report = profile_program(ir)
        peg = build_peg(ir, report)
        attach_node_features(peg, ir, report)
        subpegs = all_loop_subpegs(peg)
        for sample in cached:
            want = fresh.structural_features(
                subpegs[sample.loop_id], walk_space, gamma=GAMMA,
                seed=WALK_SEED,
            )
            assert np.array_equal(sample.x_structural, want)
    assert fresh.snapshot() == (0, sum(len(c) for _, _, c in both_paths))


def test_two_workers_give_the_serial_fingerprints(
    program_set, tiny_inst2vec, walk_space, tmp_path
):
    items = program_set[:4] + program_set[-2:]
    runs = {}
    for workers in (1, 2):
        cache = FeatureCache(DiskCache(tmp_path / f"w{workers}"))
        samples, hits, misses = cached_samples_for_programs(
            items, tiny_inst2vec, walk_space, cache,
            suite="t", app="set", gamma=GAMMA, walk_seed=WALK_SEED,
            n_workers=workers,
        )
        assert (hits, misses) == (0, 2 * len(samples))
        runs[workers] = [s.fingerprint() for s in samples]
    assert runs[1] and runs[2] == runs[1]
