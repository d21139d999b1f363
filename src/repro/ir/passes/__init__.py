"""Optimization passes and the six augmentation pipelines.

The paper builds six LLVM-IR variants of every source with six clang
optimization option sets; these pipelines play that role.  Each pass is a
semantics-preserving in-place rewrite of an IRProgram that returns it
(verified by property tests: identical interpreter results before and
after).  ``apply_pipeline`` copies its input once; a caller running a pass
directly clones first if it still needs the original.
"""

from repro.ir.passes.clone import clone_program
from repro.ir.passes.constfold import constant_fold
from repro.ir.passes.dce import dead_code_elimination
from repro.ir.passes.cse import common_subexpression_elimination
from repro.ir.passes.licm import loop_invariant_code_motion
from repro.ir.passes.strength import strength_reduction
from repro.ir.passes.unroll import unroll_by_two
from repro.ir.passes.pipeline import OPT_PIPELINES, apply_pipeline, pipeline_names

__all__ = [
    "clone_program",
    "constant_fold",
    "dead_code_elimination",
    "common_subexpression_elimination",
    "loop_invariant_code_motion",
    "strength_reduction",
    "unroll_by_two",
    "OPT_PIPELINES",
    "apply_pipeline",
    "pipeline_names",
]
