"""The advice plans derive each advised loop's reductions once.

A plan carries its clauses twice: as typed :class:`~repro.advisor.plan.Clause`
objects and as the rendered pragma.  Both come from one
``find_reductions`` result per advised loop; the pragma is rendered from
the clause tuple, not recomputed.  (That the rendered pragma still equals
``clause_strings`` is pinned in ``tests/advisor/test_plan.py``.)
"""

import pytest

import repro.advisor.plan as plan_module
import repro.analysis.suggestions as suggestions_module
from repro.advisor.plan import build_advice_plans
from repro.profiler import profile_program

from tests.helpers import build_mixed_program, lower_and_verify


@pytest.fixture()
def counted(monkeypatch):
    """Counts the ``find_reductions`` calls the plan builder and the
    pragma renderer make (the oracle's own calls are not counted)."""
    original = plan_module.find_reductions
    calls = []

    def counting(fn, loop_id, block_sets=None):
        calls.append(loop_id)
        return original(fn, loop_id, block_sets)

    for module in (plan_module, suggestions_module):
        monkeypatch.setattr(module, "find_reductions", counting)
    return calls


@pytest.fixture(scope="module")
def profiled():
    program = build_mixed_program()
    ir = lower_and_verify(program)
    return program, ir, profile_program(ir)


def test_one_find_reductions_per_advised_loop(counted, profiled):
    program, ir, report = profiled
    plans = build_advice_plans(program, ir, report)
    advised = sorted(loop_id for loop_id, plan in plans.items() if plan.advised)
    # the fixture must exercise an advised loop with a reduction clause,
    # where a second derivation for the pragma would show
    assert any(
        c.kind == "reduction" for plan in plans.values() for c in plan.clauses
    )
    assert sorted(counted) == advised

