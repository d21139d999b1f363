"""DiscoPoP-style dynamic parallelism classifier (phases 2-3, simplified).

Uses the same dynamic dependence evidence as the ground-truth oracle —
carried RAW/WAR/WAW at each loop level with reduction and privatization
recognition — but with the real tool's documented limitations, which produce
its sub-100% Table III accuracy:

* **calls**: loops containing user function calls are rejected (DiscoPoP's
  inter-procedural handling is conservative; the paper's false-negative
  anecdote — "loop line 53 in LU.setiv is because of the function call" —
  is exactly this);
* **coverage**: loops never executed under the profiling input cannot be
  analyzed and are rejected;
* **low trip counts**: loops observed for fewer than ``min_iterations``
  iterations have unreliable dependence evidence; DiscoPoP optimistically
  reports them parallelizable (a false-positive source);
* **dependence-count thresholds**: DiscoPoP's pattern-confidence filtering
  discards dependences observed fewer than ``min_dep_count`` times, so a
  dependence that fires only once in the profiled run (a boundary-iteration
  artifact or a single collision) does not block the suggestion — another
  false-positive source the paper's 91.2% NPB number reflects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.oracle import classify_loop
from repro.ir import ast_nodes as ast
from repro.ir.ast_nodes import Program
from repro.ir.linear import IRProgram, Opcode
from repro.profiler.report import ProfileReport
from repro.profiler.static_info import program_block_sets
from repro.tools.base import ParallelismTool, ToolPrediction
from repro.errors import ToolError


class DiscoPoPClassifier(ParallelismTool):
    """Dynamic dependence-based classifier with DiscoPoP's blind spots."""

    name = "DiscoPoP"

    def __init__(self, min_iterations: int = 2, min_dep_count: int = 2) -> None:
        self.min_iterations = min_iterations
        self.min_dep_count = min_dep_count

    def classify_program(
        self,
        ast_program: Program,
        ir_program: IRProgram,
        report: Optional[ProfileReport] = None,
    ) -> Dict[str, ToolPrediction]:
        if report is None:
            raise ToolError("DiscoPoP requires a dynamic profile report")
        out: Dict[str, ToolPrediction] = {}
        block_sets = program_block_sets(ir_program)  # once per function
        loops_with_calls = self._loops_containing_calls(ir_program, block_sets)
        for loop_id, info in ir_program.all_loops().items():
            if not info.var:
                continue  # while loops are not For-loop candidates
            if loop_id in loops_with_calls:
                out[loop_id] = ToolPrediction(
                    loop_id, False, ["function call inside loop body"]
                )
                continue
            stats = report.loop_stats.get(loop_id)
            iterations = stats.total_iterations if stats is not None else 0
            if iterations == 0:
                out[loop_id] = ToolPrediction(
                    loop_id, False, ["no dynamic coverage"]
                )
                continue
            if iterations < self.min_iterations:
                out[loop_id] = ToolPrediction(
                    loop_id,
                    True,
                    [f"only {iterations} iteration(s) observed: optimistic"],
                )
                continue
            # reduction recognition covers the classic +/* (and -) updates;
            # min/max accumulators are not matched — a systematic gap the
            # learned models can exploit, as the paper's Table III does;
            # dependences the loop carries fewer than min_dep_count times
            # fall below the confidence threshold
            oracle = classify_loop(
                ir_program, report, loop_id,
                allowed_reduction_ops={"+", "*"}, block_sets=block_sets,
                min_carried=self.min_dep_count,
            )
            out[loop_id] = ToolPrediction(
                loop_id, oracle.parallel, list(oracle.blockers)
            )
        return out

    @staticmethod
    def _loops_containing_calls(
        ir_program: IRProgram, block_sets: Dict[str, Set[str]]
    ) -> set:
        loops = set()
        for fn in ir_program.functions.values():
            blocks = {b.label: b for b in fn.blocks}
            for loop_id in fn.loops:
                for label in block_sets[loop_id]:
                    if any(
                        instr.opcode is Opcode.CALLFN
                        for instr in blocks[label].instrs
                    ):
                        loops.add(loop_id)
                        break
        return loops
