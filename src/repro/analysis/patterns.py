"""Parallel-pattern classification (the paper's first future-work item).

"Modifying our resulting classification to specify distinct parallel
patterns.  By classifying the type of parallelism present in a region,
parallelism frameworks can improve generated parallel code."

Beyond the binary label, this module assigns each loop one of the classic
algorithm-structure patterns (Huda et al., IPDPS 2016 — the DiscoPoP
pattern-detection line of work):

=============  ==============================================================
DOALL          independent iterations, no carried dependences of interest
REDUCTION      parallel after privatizing recognized accumulators
STENCIL        DoALL whose array reads use multiple constant offsets around
               the written index (neighborhood exchange)
GATHER         DoALL with indirect (subscript-of-subscript) reads
PIPELINE       a regular carried flow dependence with constant distance
               (parallelizable by pipelining / wavefront, not by DoALL)
SEQUENTIAL     anything else with blocking carried dependences
=============  ==============================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.oracle import OracleResult, classify_loop
from repro.errors import ProfilingError
from repro.ir import ast_nodes as ast
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.profiler.report import DepKind, ProfileReport
from repro.profiler.static_info import program_block_sets
from repro.tools.affine import normalize_affine


class ParallelPattern(enum.Enum):
    DOALL = "doall"
    REDUCTION = "reduction"
    STENCIL = "stencil"
    GATHER = "gather"
    PIPELINE = "pipeline"
    SEQUENTIAL = "sequential"


@dataclass
class PatternResult:
    """Pattern classification of one loop."""

    loop_id: str
    pattern: ParallelPattern
    oracle: OracleResult
    evidence: List[str]

    @property
    def parallelizable(self) -> bool:
        return self.pattern in (
            ParallelPattern.DOALL,
            ParallelPattern.REDUCTION,
            ParallelPattern.STENCIL,
            ParallelPattern.GATHER,
        )


def _find_loop_ast(program: Program, loop_id: str) -> Optional[ast.For]:
    for fn in program.functions.values():
        for stmt in ast.walk_stmts(fn.body):
            if isinstance(stmt, ast.For) and stmt.loop_id == loop_id:
                return stmt
    return None


def _access_shapes(
    loop: ast.For, enclosing_vars: Set[str]
) -> Tuple[Set[Tuple[str, float]], bool, Set[str]]:
    """(read offsets around the induction variable, any indirect read,
    written arrays).

    A read offset is recorded for reads ``a[v + c]`` whose subscript is
    affine with unit coefficient on the loop variable.
    """
    offsets: Set[Tuple[str, float]] = set()
    indirect = False
    written: Set[str] = set()
    loop_vars = enclosing_vars | {loop.var}

    for stmt in ast.walk_stmts(loop.body):
        exprs = list(ast.stmt_exprs(stmt))
        if isinstance(stmt, ast.Store):
            written.add(stmt.array)
        for expr in exprs:
            for node in ast.walk_exprs(expr):
                if not isinstance(node, ast.Load):
                    continue
                form = normalize_affine(node.index, loop_vars)
                if form is None:
                    if any(
                        isinstance(inner, ast.Load)
                        for inner in ast.walk_exprs(node.index)
                    ):
                        indirect = True
                    continue
                if form.term_coeff(loop.var) == 1.0:
                    offsets.add((node.array, form.const))
    return offsets, indirect, written


def _carried_flow_distance(
    loop: ast.For, report: ProfileReport, loop_id: str, arrays: Set[str]
) -> Optional[float]:
    """Constant dependence distance of a regular carried flow dependence.

    Detected syntactically: the loop writes ``a[v]`` and reads ``a[v - d]``
    with constant d > 0, and the profiler confirms a carried RAW on ``a``.
    """
    carried_arrays = {
        symbol
        for symbol, kinds in report.symbols_carried_by(loop_id).items()
        if symbol in arrays and DepKind.RAW in kinds
    }
    if not carried_arrays:
        return None
    offsets, _indirect, written = _access_shapes(loop, set())
    for array in carried_arrays:
        if array not in written:
            continue
        distances = {
            -const for (arr, const) in offsets if arr == array and const < 0
        }
        if len(distances) == 1:
            return float(next(iter(distances)))
    return None


def classify_pattern(
    program: Program,
    ir_program: IRProgram,
    report: ProfileReport,
    loop_id: str,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> PatternResult:
    """Classify the parallel pattern of one For loop (``block_sets`` as in
    :func:`~repro.analysis.oracle.classify_loop`)."""
    oracle = classify_loop(ir_program, report, loop_id, block_sets=block_sets)
    loop = _find_loop_ast(program, loop_id)
    if loop is None:
        raise ProfilingError(f"no AST loop for {loop_id!r}")

    evidence: List[str] = []
    arrays = set(program.arrays)

    if oracle.parallel:
        if oracle.reductions:
            evidence.append(f"reduction accumulators: {oracle.reductions}")
            return PatternResult(
                loop_id, ParallelPattern.REDUCTION, oracle, evidence
            )
        offsets, indirect, written = _access_shapes(loop, set())
        if indirect:
            evidence.append("indirect subscript reads")
            return PatternResult(
                loop_id, ParallelPattern.GATHER, oracle, evidence
            )
        neighborhoods = {}
        for array, const in offsets:
            neighborhoods.setdefault(array, set()).add(const)
        stencil_arrays = [
            array
            for array, consts in neighborhoods.items()
            if len(consts) >= 2 and any(c != 0.0 for c in consts)
        ]
        if stencil_arrays:
            evidence.append(
                f"multi-offset neighborhood reads on {sorted(stencil_arrays)}"
            )
            return PatternResult(
                loop_id, ParallelPattern.STENCIL, oracle, evidence
            )
        evidence.append("independent iterations")
        return PatternResult(loop_id, ParallelPattern.DOALL, oracle, evidence)

    distance = _carried_flow_distance(loop, report, loop_id, arrays)
    if distance is not None:
        evidence.append(f"regular flow dependence, distance {distance:g}")
        return PatternResult(
            loop_id, ParallelPattern.PIPELINE, oracle, evidence
        )
    evidence.extend(oracle.blockers[:2])
    return PatternResult(loop_id, ParallelPattern.SEQUENTIAL, oracle, evidence)


def classify_all_patterns(
    program: Program,
    ir_program: IRProgram,
    report: ProfileReport,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> Dict[str, PatternResult]:
    """Pattern classification for every For loop of ``program``.

    ``block_sets`` is :func:`program_block_sets` of ``ir_program``,
    computed here when not given.
    """
    from repro.analysis.candidates import iter_parallel_candidate_loops

    if block_sets is None:
        block_sets = program_block_sets(ir_program)
    return {
        cand.loop_id: classify_pattern(
            program, ir_program, report, cand.loop_id, block_sets
        )
        for cand in iter_parallel_candidate_loops(program)
    }
