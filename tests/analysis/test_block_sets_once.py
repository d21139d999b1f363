"""Per-program loop passes compute each function's loop block sets once.

``find_reductions`` recomputes :func:`loop_block_sets` (every loop's blocks)
when it is not handed them, so calling it per loop is quadratic in a
function's loops.  The oracle, the pragma suggestions, the advice plans and
the DiscoPoP baseline each pass the block sets down instead; the advice
plans take theirs from the static prover's context, which computed them
already.
"""

import sys

import pytest

import repro.profiler.static_info as static_info
from repro.advisor.plan import build_advice_plans
from repro.analysis.oracle import classify_all_loops
from repro.analysis.suggestions import suggest_parallelization
from repro.profiler import profile_program
from repro.tools import DiscoPoPClassifier

from tests.helpers import build_mixed_program, lower_and_verify


@pytest.fixture()
def counted(monkeypatch):
    """Every ``repro`` binding of ``loop_block_sets`` counts its calls."""
    original = static_info.loop_block_sets
    calls = []

    def counting(fn):
        calls.append(fn.name)
        return original(fn)

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture(scope="module")
def profiled():
    program = build_mixed_program()
    ir = lower_and_verify(program)
    assert len(ir.function("main").loops) >= 2
    return program, ir, profile_program(ir)


def test_oracle_once_per_function(counted, profiled):
    _program, ir, report = profiled
    classify_all_loops(ir, report)
    assert counted == ["main"]


def test_suggestions_once_per_function(counted, profiled):
    program, ir, report = profiled
    suggest_parallelization(program, ir, report)
    assert counted == ["main"]


def test_discopop_once_per_function(counted, profiled):
    program, ir, report = profiled
    DiscoPoPClassifier().predict(program, ir, report)
    assert counted == ["main"]


def test_advice_plans_once_per_function(counted, profiled):
    # the plans reuse the block sets of the static prover's context
    program, ir, report = profiled
    build_advice_plans(program, ir, report)
    assert counted == ["main"]
