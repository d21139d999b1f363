"""Loop-sample extraction: program -> profiled PEG -> per-loop LoopSamples.

One extraction pass per program variant runs the full Fig. 2 pipeline:
lower, verify, profile, build the PEG, attach dynamic features, embed nodes
(inst2vec + Table I features; anonymous-walk distributions), and emit one
:class:`LoopSample` per labeled For loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.features import FEATURE_NAMES, LoopFeatures, attach_node_features
from repro.dataset.types import LoopSample
from repro.embeddings.anonwalk import AnonymousWalkSpace, structural_node_features
from repro.embeddings.inst2vec import Inst2Vec
from repro.errors import DatasetError
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.ir.lowering import lower_program
from repro.ir.verify import verify_program
from repro.peg.builder import build_peg, loop_node_id
from repro.peg.graph import PEG, EdgeKind
from repro.peg.subgraph import all_loop_subpegs
from repro.profiler.interpreter import profile_program
from repro.profiler.report import ProfileReport
from repro.utils.rng import RngLike, ensure_rng


def extract_loop_samples(
    program: Program,
    labels: Optional[Mapping[str, int]],
    inst2vec: Inst2Vec,
    walk_space: AnonymousWalkSpace,
    suite: str,
    app: str,
    gamma: int = 30,
    variant: str = "O0",
    ir_program: Optional[IRProgram] = None,
    static_only: bool = False,
    rng: RngLike = 0,
    meta: Optional[Dict[str, object]] = None,
) -> List[LoopSample]:
    """Extract one sample per labeled loop of ``program``.

    ``labels`` maps loop_id -> 0/1; loops missing from it are skipped.  When
    ``labels`` is None, every executed For loop is labeled by the dynamic
    oracle (the transformed-dataset path: "we classify it using tools like
    DiscoPoP and Pluto", Section IV-A).
    ``ir_program`` lets callers supply a pre-transformed IR variant (the six
    pipelines); by default the program is lowered fresh.
    ``static_only`` zeroes the dynamic feature columns (the Static-GNN
    baseline's world view).
    """
    rng = ensure_rng(rng)
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

    # tool baselines vote once per program; votes ride along on each sample
    tool_votes = _tool_votes(program, ir_program, report)

    subpegs = all_loop_subpegs(peg)
    samples: List[LoopSample] = []
    for loop_id, label in labels.items():
        if loop_id not in subpegs:
            raise DatasetError(
                f"labeled loop {loop_id!r} not found in program "
                f"{program.name!r} (variant {variant})"
            )
        sample = _sample_from_subpeg(
            subpegs[loop_id],
            loop_id=loop_id,
            label=int(label),
            program=program,
            feats=loop_feats[loop_id],
            inst2vec=inst2vec,
            walk_space=walk_space,
            suite=suite,
            app=app,
            gamma=gamma,
            variant=variant,
            static_only=static_only,
            rng=rng,
        )
        sample.tool_votes = {
            tool: votes.get(loop_id, 0) for tool, votes in tool_votes.items()
        }
        if meta:
            sample.meta.update(meta)
        samples.append(sample)
    return samples


def _tool_votes(
    program: Program, ir_program: IRProgram, report: ProfileReport
) -> Dict[str, Dict[str, int]]:
    """Run the three tool baselines once over the program."""
    from repro.tools import AutoParLite, DiscoPoPClassifier, PlutoLite

    votes: Dict[str, Dict[str, int]] = {}
    for tool in (PlutoLite(), AutoParLite(), DiscoPoPClassifier()):
        predictions = tool.predict(program, ir_program, report)
        votes[tool.name] = {k: int(v) for k, v in predictions.items()}
    return votes


def _sample_from_subpeg(
    subpeg: PEG,
    loop_id: str,
    label: int,
    program: Program,
    feats: LoopFeatures,
    inst2vec: Inst2Vec,
    walk_space: AnonymousWalkSpace,
    suite: str,
    app: str,
    gamma: int,
    variant: str,
    static_only: bool,
    rng: np.random.Generator,
) -> LoopSample:
    node_ids = list(subpeg.nodes)
    index = {nid: pos for pos, nid in enumerate(node_ids)}
    n = len(node_ids)

    adjacency = np.zeros((n, n))
    for edge in subpeg.edges:
        a, b = index[edge.src], index[edge.dst]
        if a != b:
            adjacency[a, b] = 1.0
            adjacency[b, a] = 1.0

    # semantic features: inst2vec mean + dynamic feature columns
    n_dyn = len(FEATURE_NAMES)
    x_semantic = np.zeros((n, inst2vec.dim + n_dyn))
    for pos, nid in enumerate(node_ids):
        node = subpeg.nodes[nid]
        x_semantic[pos, : inst2vec.dim] = inst2vec.embed_sequence(node.statements)
        if not static_only:
            x_semantic[pos, inst2vec.dim :] = [
                node.features.get(name, 0.0) for name in FEATURE_NAMES
            ]

    walk_ids, x_structural = structural_node_features(
        subpeg, walk_space, gamma=gamma, rng=rng
    )
    if walk_ids != node_ids:  # structural features are ordered by peg.nodes
        remap = [walk_ids.index(nid) for nid in node_ids]
        x_structural = x_structural[remap]

    # flat statement sequence in source-line order (NCC input)
    ordered = sorted(
        (subpeg.nodes[nid] for nid in node_ids),
        key=lambda node: (node.start_line, node.node_id),
    )
    statements: List[str] = []
    for node in ordered:
        statements.extend(node.statements)

    sample = LoopSample(
        sample_id=f"{program.name}/{variant}/{loop_id}",
        loop_id=loop_id,
        program_name=program.name,
        app=app,
        suite=suite,
        label=label,
        adjacency=adjacency,
        x_semantic=x_semantic,
        x_structural=x_structural,
        statements=statements,
        loop_features=feats.as_array(),
        meta={"variant": variant},
    )
    sample.validate()
    return sample
