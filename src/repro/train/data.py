"""Training-side sample assembly through the runtime ``FeatureCache``.

:mod:`repro.dataset.extraction` recomputes inst2vec node features and
anonymous-walk distributions on every call — right for one-shot dataset
builds, wasteful for iterative training workflows (the CLI ``train``
command, hyper-parameter sweeps) that re-extract the same programs run
after run.  :func:`cached_loop_samples` runs the same featurizer
(:mod:`repro.dataset.extraction`) with the two feature matrices pulled
through :class:`repro.runtime.features.FeatureCache`, so extraction is
paid once per loop *content* — and, because the cache is disk-backed, once
across processes: a second ``train`` run over the same app skips straight
to model math.

Two differences from dataset extraction: the tool baselines do not run,
and walk sampling derives from the cache's fixed per-call seed
(``walk_seed``) rather than a single generator threaded through all loops —
the determinism property that makes the structural view cacheable at all
(see :mod:`repro.runtime.features`).  Both schemes draw from the same walk
distribution; they just differ in which concrete walks are sampled.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.dataset.extraction import labeled_loops, loop_sample
from repro.dataset.types import LoopSample
from repro.embeddings.anonwalk import AnonymousWalkSpace
from repro.embeddings.inst2vec import Inst2Vec
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.runtime.features import FeatureCache


def cached_loop_samples(
    program: Program,
    labels: Optional[Mapping[str, int]],
    inst2vec: Inst2Vec,
    walk_space: AnonymousWalkSpace,
    cache: FeatureCache,
    suite: str,
    app: str,
    gamma: int = 30,
    walk_seed: int = 0,
    variant: str = "O0",
    ir_program: Optional[IRProgram] = None,
) -> List[LoopSample]:
    """One :class:`LoopSample` per labeled loop, features via ``cache``.

    ``labels`` is as in :func:`repro.dataset.extraction.labeled_loops`.
    Profiling and PEG construction still run per call — they are cheap
    next to feature extraction and provide the Table I values — but the
    inst2vec and anonymous-walk matrices come from the content-hash cache.
    The tool baselines do not run: cached samples carry no tool votes.
    """
    _ir, _report, loops = labeled_loops(program, labels, variant, ir_program)
    return [
        loop_sample(
            program, variant, suite, app, loop,
            cache.semantic_features(loop.subpeg, inst2vec),
            cache.structural_features(
                loop.subpeg, walk_space, gamma=gamma, seed=walk_seed
            ),
            meta={"features": "cached"},
        )
        for loop in loops
    ]


def _cached_samples_job(payload) -> Tuple[List[LoopSample], int, int]:
    """Worker body for :func:`cached_samples_for_programs`.

    Rebuilds a :class:`FeatureCache` over the shared on-disk directory
    (the payload ships the picklable ``DiskCache``, not the lock-holding
    ``FeatureCache``), so workers cooperate through the disk (atomic
    writes make concurrent misses safe — last writer wins with identical
    content) and returns its local hit/miss counters for aggregation.
    """
    (program, labels, inst2vec, walk_space, disk, suite, app, gamma,
     walk_seed) = payload
    cache = FeatureCache(disk)
    samples = cached_loop_samples(
        program, labels, inst2vec, walk_space, cache,
        suite=suite, app=app, gamma=gamma, walk_seed=walk_seed,
    )
    hits, misses = cache.snapshot()
    return samples, hits, misses


def cached_samples_for_programs(
    items: Sequence[Tuple[Program, Optional[Mapping[str, int]]]],
    inst2vec: Inst2Vec,
    walk_space: AnonymousWalkSpace,
    cache: FeatureCache,
    suite: str,
    app: str,
    gamma: int = 30,
    walk_seed: int = 0,
    n_workers: int = 1,
) -> Tuple[List[LoopSample], int, int]:
    """Fan :func:`cached_loop_samples` over ``items`` — one (program,
    labels) pair per task — across ``n_workers`` processes.

    Returns ``(samples, cache_hits, cache_misses)`` with samples in item
    order.  Results are identical for any worker count: each call derives
    its walks from the fixed ``walk_seed``, never from shared generator
    state.  With ``n_workers=1`` no processes are spawned and the parent's
    ``cache`` counters advance as before.
    """
    if n_workers <= 1:
        samples: List[LoopSample] = []
        for program, labels in items:
            samples.extend(
                cached_loop_samples(
                    program, labels, inst2vec, walk_space, cache,
                    suite=suite, app=app, gamma=gamma, walk_seed=walk_seed,
                )
            )
        hits, misses = cache.snapshot()
        return samples, hits, misses

    payloads = [
        (program, labels, inst2vec, walk_space, cache.disk, suite, app,
         gamma, walk_seed)
        for program, labels in items
    ]
    samples = []
    hits = misses = 0
    import multiprocessing as mp

    mp_context = (
        mp.get_context("fork")
        if "fork" in mp.get_all_start_methods()
        else None
    )
    with ProcessPoolExecutor(
        max_workers=n_workers, mp_context=mp_context
    ) as executor:
        for job_samples, job_hits, job_misses in executor.map(
            _cached_samples_job, payloads
        ):
            samples.extend(job_samples)
            hits += job_hits
            misses += job_misses
    cache.hits += hits
    cache.misses += misses
    return samples, cache.hits, cache.misses
