"""The six optimization pipelines standing in for the paper's six clang
option builds (Section IV-A, "Transformed dataset").

Each pipeline is a named sequence of semantics-preserving passes.  Applying
all six to one kernel yields six structurally distinct LinearIR variants —
different instruction mixes, different CU shapes, different dependence
surfaces — with identical run-time behaviour and identical loop labels.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.ir.linear import IRProgram
from repro.ir.passes.clone import clone_program
from repro.ir.passes.constfold import constant_fold
from repro.ir.passes.cse import common_subexpression_elimination
from repro.ir.passes.dce import dead_code_elimination
from repro.ir.passes.licm import loop_invariant_code_motion
from repro.ir.passes.strength import strength_reduction
from repro.ir.passes.unroll import unroll_by_two

Pass = Callable[[IRProgram], IRProgram]

#: The six pipelines (analogues of -O0 ... -O2-ish clang option sets).
OPT_PIPELINES: Dict[str, Tuple[Pass, ...]] = {
    "O0": (),
    "O1-fold": (constant_fold,),
    "O1-dce": (constant_fold, dead_code_elimination),
    "O2-cse": (constant_fold, common_subexpression_elimination,
               dead_code_elimination),
    "O2-licm": (loop_invariant_code_motion, constant_fold, strength_reduction,
                dead_code_elimination),
    "O2-unroll": (unroll_by_two, constant_fold,
                  common_subexpression_elimination, dead_code_elimination),
}


def pipeline_names() -> List[str]:
    return list(OPT_PIPELINES)


#: environment flag: when set to a non-empty value other than "0", every
#: pass application is followed by a full ``ir.verify`` run.  The test
#: suite sets it (tests/conftest.py) so every optimization variant used in
#: dataset assembly is verified; production builds skip the overhead.
VERIFY_ENV = "REPRO_VERIFY_PASSES"


def _verify_from_env() -> bool:
    value = os.environ.get(VERIFY_ENV, "")
    return bool(value) and value != "0"


def apply_pipeline(
    program: IRProgram, name: str, verify: Optional[bool] = None
) -> IRProgram:
    """Apply the named pipeline to a copy of ``program``.

    The copy is the pipeline's only one: every pass rewrites it in place.
    ``verify=True`` re-runs :func:`repro.ir.verify.verify_program` after
    every pass, attributing the failure to the pass that produced the bad
    IR; ``None`` (default) consults the :data:`VERIFY_ENV` environment
    flag.
    """
    try:
        passes = OPT_PIPELINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown pipeline {name!r}; choose from {pipeline_names()}"
        ) from None
    if verify is None:
        verify = _verify_from_env()
    out = clone_program(program)
    for pipeline_pass in passes:
        out = pipeline_pass(out)
        if verify:
            from repro.errors import IRError
            from repro.ir.verify import verify_program

            try:
                verify_program(out)
            except IRError as exc:
                raise IRError(
                    f"pipeline {name!r}: pass "
                    f"{getattr(pipeline_pass, '__name__', pipeline_pass)!r} "
                    f"produced invalid IR: {exc}"
                ) from exc
    return out
