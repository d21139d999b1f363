"""Loop analysis: Table I features, reduction/privatization recognition, and
the ground-truth parallelizability oracle."""

from repro.analysis.critical_path import dependence_dag
from repro.analysis.reduction import ReductionInfo, find_reductions
from repro.analysis.privatization import privatizable_scalars
from repro.analysis.oracle import OracleResult, classify_loop, classify_all_loops
from repro.analysis.features import (
    LoopFeatures,
    attach_node_features,
    loop_features,
    FEATURE_NAMES,
)
from repro.analysis.patterns import (
    ParallelPattern,
    PatternResult,
    classify_pattern,
    classify_all_patterns,
)
from repro.analysis.suggestions import (
    Suggestion,
    clause_strings,
    render_pragma,
    suggest_parallelization,
    render_report,
)
from repro.analysis.candidates import (
    CandidateLoop,
    iter_parallel_candidate_loops,
)
from repro.analysis.ranges import (
    RANGE_ANALYSIS_VERSION,
    Interval,
    ProgramRanges,
    analyze_program,
    check_soundness,
    harvest_enclosing_bounds,
)

__all__ = [
    "dependence_dag",
    "ReductionInfo", "find_reductions",
    "privatizable_scalars",
    "OracleResult", "classify_loop", "classify_all_loops",
    "LoopFeatures", "attach_node_features", "loop_features", "FEATURE_NAMES",
    "ParallelPattern", "PatternResult", "classify_pattern",
    "classify_all_patterns",
    "Suggestion", "clause_strings", "render_pragma",
    "suggest_parallelization", "render_report",
    "CandidateLoop", "iter_parallel_candidate_loops",
    "RANGE_ANALYSIS_VERSION", "Interval", "ProgramRanges",
    "analyze_program", "check_soundness", "harvest_enclosing_bounds",
]
