"""Ground-truth parallelizability oracle.

Decides DoALL parallelizability of each loop from the exact dynamic
dependence profile plus reduction/privatization recognition:

* dependences on the loop's own induction variable are ignored (it becomes
  the parallel loop index);
* carried RAW on a recognized scalar reduction accumulator is allowed
  (OpenMP ``reduction`` clause);
* carried WAR/WAW on scalars without carried RAW is allowed (``private``);
* any other carried dependence — flow dependences on arrays, unrecognized
  scalar recurrences, array WAR/WAW — blocks parallelization.

This is the labeling function the dataset pipeline uses where the original
benchmarks' OpenMP annotations are the paper's ground truth; the tool
baselines in :mod:`repro.tools` are deliberately *imperfect* approximations
of this oracle, mirroring the accuracy gaps in Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ProfilingError
from repro.ir.linear import IRProgram
from repro.analysis.privatization import privatizable_scalars
from repro.analysis.reduction import find_reductions
from repro.profiler.report import DepKind, ProfileReport
from repro.profiler.static_info import program_block_sets


@dataclass
class OracleResult:
    """Classification of one loop with supporting evidence."""

    loop_id: str
    parallel: bool
    executed: bool                       # loop body actually ran
    blockers: List[str] = field(default_factory=list)
    reductions: List[str] = field(default_factory=list)
    privatized: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.parallel


def classify_loop(
    program: IRProgram,
    report: ProfileReport,
    loop_id: str,
    allowed_reduction_ops: Optional[Set[str]] = None,
    block_sets: Optional[Dict[str, Set[str]]] = None,
    min_carried: int = 1,
) -> OracleResult:
    """Classify one loop; raises if the loop id is unknown.

    ``allowed_reduction_ops`` restricts which reduction operators are
    recognized (tools model their gaps with it — e.g. DiscoPoP's classic
    recognizer covers ``+``/``*`` but not ``min``/``max``); None = all.
    ``block_sets`` is :func:`program_block_sets` of ``program``, for
    callers that classify many loops.  Dependences the loop carries fewer
    than ``min_carried`` times are ignored (DiscoPoP's confidence
    threshold).
    """
    loops = program.all_loops()
    if loop_id not in loops:
        raise ProfilingError(f"unknown loop {loop_id!r} in {program.name!r}")
    info = loops[loop_id]
    fn = program.function(info.function)
    stats = report.loop_stats.get(loop_id)
    executed = stats is not None and stats.total_iterations > 0

    reductions = find_reductions(fn, loop_id, block_sets)
    if allowed_reduction_ops is not None:
        reductions = {
            sym: red
            for sym, red in reductions.items()
            if red.operator in allowed_reduction_ops
        }
    array_names = set(program.arrays)
    private = privatizable_scalars(report, loop_id, array_names, min_carried)

    own_induction = f"{info.function}::{info.var}" if info.var else None
    blockers: List[str] = []
    used_reductions: Set[str] = set()
    used_private: Set[str] = set()

    carried = report.symbols_carried_by(loop_id, min_carried)
    for symbol, kinds in carried.items():
        if symbol == own_induction:
            continue
        is_scalar = symbol not in array_names
        if DepKind.RAW in kinds:
            if is_scalar and symbol in reductions:
                used_reductions.add(symbol)
                continue
            blockers.append(f"carried RAW on {symbol}")
        else:
            if is_scalar and symbol in private:
                used_private.add(symbol)
                continue
            kind_names = ",".join(sorted(k.value for k in kinds))
            blockers.append(f"carried {kind_names} on {symbol}")

    return OracleResult(
        loop_id=loop_id,
        parallel=not blockers,
        executed=executed,
        blockers=blockers,
        reductions=sorted(used_reductions),
        privatized=sorted(used_private),
    )


def classify_all_loops(
    program: IRProgram, report: ProfileReport
) -> Dict[str, OracleResult]:
    """Classify every loop of ``program``."""
    block_sets = program_block_sets(program)  # once per function
    return {
        loop_id: classify_loop(program, report, loop_id, block_sets=block_sets)
        for loop_id in program.all_loops()
    }
