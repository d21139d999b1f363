"""Loop-sample extraction: the one sub-PEG featurizer (Fig. 2).

One pass per program variant lowers, verifies and profiles it and builds
the PEG with its dynamic features (:func:`labeled_loops`), turns each
labeled loop's sub-PEG into arrays (:func:`subpeg_adjacency`,
:func:`semantic_matrix`, anonymous-walk distributions,
:func:`subpeg_statements`) and emits one :class:`LoopSample` per labeled
For loop (:func:`loop_sample`).  :func:`repro.train.data.cached_loop_samples`
runs the same steps with both feature matrices from the runtime's cache.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.features import FEATURE_NAMES, LoopFeatures, attach_node_features
from repro.dataset.types import LoopSample
from repro.embeddings.anonwalk import AnonymousWalkSpace, structural_node_features
from repro.embeddings.inst2vec import Inst2Vec
from repro.errors import DatasetError
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.ir.lowering import lower_program
from repro.ir.shared import per_program
from repro.ir.verify import verify_program
from repro.peg.builder import build_peg
from repro.peg.graph import PEG
from repro.peg.subgraph import all_loop_subpegs
from repro.profiler.interpreter import profile_program
from repro.profiler.report import ProfileReport
from repro.utils.rng import RngLike, ensure_rng


class LabeledLoop(NamedTuple):
    """One labeled loop of a profiled program."""

    loop_id: str
    label: int
    subpeg: PEG
    features: LoopFeatures


def labeled_loops(
    program: Program,
    labels: Optional[Mapping[str, int]],
    variant: str = "O0",
    ir_program: Optional[IRProgram] = None,
) -> Tuple[IRProgram, ProfileReport, List[LabeledLoop]]:
    """The IR, its profile and one :class:`LabeledLoop` per ``labels`` entry.

    ``labels`` maps loop_id -> 0/1; when None, every executed For loop is
    labeled by the dynamic oracle (the transformed-dataset path: "we
    classify it using tools like DiscoPoP and Pluto", Section IV-A).
    ``ir_program`` lets callers supply a pre-transformed IR variant (the
    six pipelines); by default the program is lowered fresh.
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
    loops: List[LabeledLoop] = []
    for loop_id, label in labels.items():
        if loop_id not in subpegs:
            raise DatasetError(
                f"labeled loop {loop_id!r} not found in program "
                f"{program.name!r} (variant {variant})"
            )
        loops.append(
            LabeledLoop(loop_id, int(label), subpegs[loop_id], loop_feats[loop_id])
        )
    return ir_program, report, loops


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
    program_key: str = "",
) -> List[LoopSample]:
    """Extract one sample per labeled loop of ``program``.

    ``labels``, ``variant`` and ``ir_program`` are as in
    :func:`labeled_loops`.  Walks come from the one generator ``rng``,
    threaded through the loops in ``labels`` order.  ``static_only`` zeroes
    the dynamic feature columns (the Static-GNN baseline's world view).
    ``program_key`` is the program's content key, if the caller has it
    (see :func:`repro.ir.shared.per_program`).
    """
    rng = ensure_rng(rng)
    ir_program, report, loops = labeled_loops(
        program, labels, variant, ir_program
    )
    # the tool baselines' votes ride along on each sample
    tool_votes = _tool_votes(program, ir_program, report, program_key)

    samples: List[LoopSample] = []
    rows: Dict[str, np.ndarray] = {}  # nested loops' sub-PEGs share nodes
    for loop in loops:
        _ids, x_structural = structural_node_features(
            loop.subpeg, walk_space, gamma=gamma, rng=rng
        )
        samples.append(loop_sample(
            program, variant, suite, app, loop,
            semantic_matrix(loop.subpeg, inst2vec, static_only, rows),
            x_structural,
            tool_votes={
                tool: votes.get(loop.loop_id, 0)
                for tool, votes in tool_votes.items()
            },
            meta=meta,
        ))
    return samples


def _tool_votes(
    program: Program,
    ir_program: IRProgram,
    report: ProfileReport,
    program_key: str = "",
) -> Dict[str, Dict[str, int]]:
    """The three tool baselines' votes on the variant.

    Pluto and AutoPar read only the AST, so inside an analysis scope they
    vote once per program, whatever the variant; DiscoPoP reads the
    variant's profile and votes every time."""
    from repro.tools import AutoParLite, DiscoPoPClassifier, PlutoLite

    votes = dict(per_program(
        "ast-votes", program, program_key or None,
        lambda _key: {
            tool.name: _votes(tool, program, ir_program, report)
            for tool in (PlutoLite(), AutoParLite())
        },
    ))
    discopop = DiscoPoPClassifier()
    votes[discopop.name] = _votes(discopop, program, ir_program, report)
    return votes


def _votes(tool, program, ir_program, report) -> Dict[str, int]:
    predictions = tool.predict(program, ir_program, report)
    return {k: int(v) for k, v in predictions.items()}


def subpeg_adjacency(subpeg: PEG) -> np.ndarray:
    """Undirected ``(n, n)`` 0/1 adjacency in ``subpeg.nodes`` order.

    Self-loops are dropped and every remaining edge (hierarchy or
    dependence) is symmetrized.
    """
    node_ids = list(subpeg.nodes)
    index = {nid: pos for pos, nid in enumerate(node_ids)}
    adjacency = np.zeros((len(node_ids), len(node_ids)))
    for edge in subpeg.edges:
        a, b = index[edge.src], index[edge.dst]
        if a != b:
            adjacency[a, b] = 1.0
            adjacency[b, a] = 1.0
    return adjacency


def semantic_matrix(
    subpeg: PEG,
    inst2vec: Inst2Vec,
    static_only: bool = False,
    rows: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """``(n, inst2vec.dim + len(FEATURE_NAMES))`` node-view features.

    Row order follows ``subpeg.nodes``; columns are the inst2vec mean of
    each node's statements followed by the Table I dynamic feature columns
    (zeroed when ``static_only``).  ``rows`` memoizes the inst2vec mean by
    node id across the sub-PEGs of one PEG.
    """
    n_dyn = len(FEATURE_NAMES)
    out = np.zeros((len(subpeg.nodes), inst2vec.dim + n_dyn))
    for pos, node in enumerate(subpeg.nodes.values()):
        row = None if rows is None else rows.get(node.node_id)
        if row is None:
            row = inst2vec.embed_sequence(node.statements)
            if rows is not None:
                rows[node.node_id] = row
        out[pos, : inst2vec.dim] = row
        if not static_only:
            out[pos, inst2vec.dim :] = [
                node.features.get(name, 0.0) for name in FEATURE_NAMES
            ]
    return out


def subpeg_statements(subpeg: PEG) -> List[str]:
    """The flat statement sequence in source-line order (the NCC input)."""
    ordered = sorted(
        subpeg.nodes.values(), key=lambda node: (node.start_line, node.node_id)
    )
    return [statement for node in ordered for statement in node.statements]


def loop_sample(
    program: Program,
    variant: str,
    suite: str,
    app: str,
    loop: LabeledLoop,
    x_semantic: np.ndarray,
    x_structural: np.ndarray,
    tool_votes: Optional[Dict[str, int]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> LoopSample:
    """The validated :class:`LoopSample` of one labeled loop, given its two
    feature matrices; ``meta`` extends ``{"variant": variant}``."""
    sample = LoopSample(
        sample_id=f"{program.name}/{variant}/{loop.loop_id}",
        loop_id=loop.loop_id,
        program_name=program.name,
        app=app,
        suite=suite,
        label=loop.label,
        adjacency=subpeg_adjacency(loop.subpeg),
        x_semantic=x_semantic,
        x_structural=x_structural,
        statements=subpeg_statements(loop.subpeg),
        loop_features=loop.features.as_array(),
        tool_votes=dict(tool_votes or {}),
        meta={"variant": variant, **(meta or {})},
    )
    sample.validate()
    return sample
