"""Training-side sample assembly through the runtime ``FeatureCache``.

:mod:`repro.dataset.extraction` recomputes inst2vec node features and
anonymous-walk distributions on every call — right for one-shot dataset
builds, wasteful for iterative training workflows (the CLI ``train``
command, hyper-parameter sweeps) that re-extract the same programs run
after run.  :func:`cached_loop_samples` assembles the same
:class:`~repro.dataset.types.LoopSample` objects with the two feature
matrices pulled through :class:`repro.runtime.features.FeatureCache`, so
extraction is paid once per loop *content* — and, because the cache is
disk-backed, once across processes: a second ``train`` run over the same
app skips straight to model math.

One semantic difference from dataset extraction: walk sampling derives
from the cache's fixed per-call seed (``walk_seed``) rather than a single
generator threaded through all loops — the determinism property that makes
the structural view cacheable at all (see
:mod:`repro.runtime.features`).  Both schemes draw from the same walk
distribution; they just differ in which concrete walks are sampled.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.features import attach_node_features
from repro.dataset.types import LoopSample
from repro.embeddings.anonwalk import AnonymousWalkSpace
from repro.embeddings.inst2vec import Inst2Vec
from repro.errors import DatasetError
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.ir.lowering import lower_program
from repro.ir.verify import verify_program
from repro.peg.builder import build_peg
from repro.peg.subgraph import all_loop_subpegs
from repro.profiler.interpreter import profile_program
from repro.runtime.features import FeatureCache, subpeg_adjacency


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

    ``labels`` maps loop_id -> 0/1; when None, every executed For loop is
    labeled by the dynamic oracle (as in dataset extraction).  Profiling
    and PEG construction still run per call — they are cheap next to
    feature extraction and provide the Table I values — but the inst2vec
    and anonymous-walk matrices come from the content-hash cache.
    """
    if ir_program is None:
        ir_program = lower_program(program)
        verify_program(ir_program)
    report = profile_program(ir_program)
    peg = build_peg(ir_program, report)
    loop_feats = attach_node_features(peg, ir_program, report)

    if labels is None:
        from repro.analysis.oracle import classify_all_loops

        labels = {
            loop_id: int(result.parallel)
            for loop_id, result in classify_all_loops(ir_program, report).items()
            if result.executed and ir_program.all_loops()[loop_id].var
        }

    subpegs = all_loop_subpegs(peg)
    samples: List[LoopSample] = []
    for loop_id, label in labels.items():
        if loop_id not in subpegs:
            raise DatasetError(
                f"labeled loop {loop_id!r} not found in program "
                f"{program.name!r} (variant {variant})"
            )
        subpeg = subpegs[loop_id]
        x_semantic = cache.semantic_features(subpeg, inst2vec)
        x_structural = cache.structural_features(
            subpeg, walk_space, gamma=gamma, seed=walk_seed
        )
        node_ids = list(subpeg.nodes)
        ordered = sorted(
            (subpeg.nodes[nid] for nid in node_ids),
            key=lambda node: (node.start_line, node.node_id),
        )
        statements: List[str] = []
        for node in ordered:
            statements.extend(node.statements)
        feats = loop_feats[loop_id]
        sample = LoopSample(
            sample_id=f"{program.name}/{variant}/{loop_id}",
            loop_id=loop_id,
            program_name=program.name,
            app=app,
            suite=suite,
            label=int(label),
            adjacency=subpeg_adjacency(subpeg),
            x_semantic=np.asarray(x_semantic),
            x_structural=np.asarray(x_structural),
            statements=statements,
            loop_features=feats.as_array(),
            meta={"variant": variant, "features": "cached"},
        )
        sample.validate()
        samples.append(sample)
    return samples


def _cached_samples_job(payload) -> Tuple[List[LoopSample], int, int]:
    """Worker body for :func:`cached_samples_for_programs`.

    Rebuilds a :class:`FeatureCache` over the shared on-disk directory, so
    workers cooperate through the disk (atomic writes make concurrent
    misses safe — last writer wins with identical content) and returns its
    local hit/miss counters for aggregation.
    """
    (program, labels, inst2vec, walk_space, cache, suite, app, gamma,
     walk_seed) = payload
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
        (program, labels, inst2vec, walk_space, cache, suite, app, gamma,
         walk_seed)
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
