"""OpenMP pragma suggestions — the end-user artifact DiscoPoP emits.

Turns a pattern classification plus the oracle's variable evidence into a
ready-to-paste ``#pragma omp`` line per parallelizable loop, with
``reduction(op: var)`` and ``private(var)`` clauses filled in, mirroring
DiscoPoP's "automatic construct selection and variable classification"
(Norouzi et al., ICS 2019 — reference [25] of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.oracle import classify_loop
from repro.analysis.patterns import (
    ParallelPattern,
    PatternResult,
    classify_all_patterns,
)
from repro.analysis.reduction import find_reductions
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram
from repro.profiler.report import ProfileReport
from repro.profiler.static_info import program_block_sets


@dataclass
class Suggestion:
    """One loop's parallelization suggestion."""

    loop_id: str
    line: int                    # source line of the For statement
    pattern: ParallelPattern
    pragma: Optional[str]        # None when not parallelizable
    rationale: str

    def render(self) -> str:
        if self.pragma is None:
            return f"line {self.line:4d}: (sequential) {self.rationale}"
        return f"line {self.line:4d}: {self.pragma}   // {self.rationale}"


def _bare(scoped: str) -> str:
    return scoped.split("::", 1)[-1]


def clause_strings(
    ir_program: IRProgram,
    loop_id: str,
    oracle,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> List[str]:
    """Deterministically ordered OpenMP clauses for one parallel loop.

    Ordering contract (advisor plan goldens and pragma output depend on
    it): every ``reduction(op: var)`` clause first, sorted by bare
    accumulator name, then at most one ``private(...)`` clause whose
    variable list is sorted and deduplicated.  Shared between
    :func:`suggest_for_loop` and :func:`repro.advisor.plan.build_advice_plans`
    so the CLI suggestion text and the advisor's rendered pragma can never
    drift apart.  ``block_sets`` is :func:`program_block_sets` of
    ``ir_program``, for callers that render many loops.
    """
    clauses: List[str] = []
    if oracle.reductions:
        loop_info = ir_program.all_loops()[loop_id]
        fn = ir_program.function(loop_info.function)
        reductions = find_reductions(fn, loop_id, block_sets)
        for scoped in sorted(oracle.reductions, key=_bare):
            info = reductions.get(scoped)
            operator = info.operator if info else "+"
            clauses.append(f"reduction({operator}: {_bare(scoped)})")
    private = sorted({
        _bare(scoped)
        for scoped in oracle.privatized
        if not _is_inner_induction(ir_program, loop_id, _bare(scoped))
    })
    if private:
        clauses.append(f"private({', '.join(private)})")
    return clauses


def render_pragma(clauses: List[str]) -> str:
    """``#pragma omp parallel for`` plus the (already ordered) clauses."""
    pragma = "#pragma omp parallel for"
    if clauses:
        pragma += " " + " ".join(clauses)
    return pragma


def suggest_for_loop(
    program: Program,
    ir_program: IRProgram,
    report: ProfileReport,
    result: PatternResult,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> Suggestion:
    loop_info = ir_program.all_loops()[result.loop_id]
    oracle = result.oracle

    if not result.parallelizable:
        rationale = (
            "pipeline-parallelizable (wavefront), not DoALL"
            if result.pattern is ParallelPattern.PIPELINE
            else "; ".join(oracle.blockers[:2]) or "carried dependences"
        )
        return Suggestion(
            loop_id=result.loop_id,
            line=loop_info.line,
            pattern=result.pattern,
            pragma=None,
            rationale=rationale,
        )

    pragma = render_pragma(
        clause_strings(ir_program, result.loop_id, oracle, block_sets)
    )
    rationale = f"{result.pattern.value}: {'; '.join(result.evidence[:1])}"
    return Suggestion(
        loop_id=result.loop_id,
        line=loop_info.line,
        pattern=result.pattern,
        pragma=pragma,
        rationale=rationale,
    )


def _is_inner_induction(
    ir_program: IRProgram, loop_id: str, var: str
) -> bool:
    """Inner-loop counters are implicitly private in OpenMP for-loops."""
    for info in ir_program.all_loops().values():
        if info.parent == loop_id and info.var == var:
            return True
        # deeper descendants too
        parent = info.parent
        while parent is not None:
            if parent == loop_id and info.var == var:
                return True
            parent = ir_program.all_loops()[parent].parent
    return False


def suggest_parallelization(
    program: Program, ir_program: IRProgram, report: ProfileReport
) -> Dict[str, Suggestion]:
    """Pragma suggestions for every For loop, keyed by loop id."""
    block_sets = program_block_sets(ir_program)  # once per function
    patterns = classify_all_patterns(program, ir_program, report, block_sets)
    return {
        loop_id: suggest_for_loop(
            program, ir_program, report, result, block_sets
        )
        for loop_id, result in patterns.items()
    }


def render_report(suggestions: Dict[str, Suggestion]) -> str:
    """Human-readable suggestion listing, ordered by source line."""
    ordered = sorted(suggestions.values(), key=lambda s: s.line)
    return "\n".join(s.render() for s in ordered)
