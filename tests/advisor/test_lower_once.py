"""``advise_program`` lowers its source program once: the plans, the
profile and the prover share the shared analysis's O0 lowering."""

import sys

import pytest

from repro.advisor import advise_program
from repro.benchsuite.registry import build_app
from repro.ir import lowering

from tests.helpers import build_mixed_program, build_reduction_program


def _count_source_lowerings(monkeypatch, program):
    """Rebind every imported ``lower_program`` to count calls on
    ``program`` itself (transformed copies lowered by the validator are
    other programs)."""
    calls = []
    original = lowering.lower_program

    def counting(prog, *args, **kwargs):
        if prog is program:
            calls.append(prog.name)
        return original(prog, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "lower_program", None
        ) is original:
            monkeypatch.setattr(module, "lower_program", counting)
    return calls


@pytest.mark.parametrize("build", [
    lambda: build_app("fib").programs[0],
    build_reduction_program,
    build_mixed_program,
])
def test_advise_program_lowers_source_once(monkeypatch, build):
    program = build()
    calls = _count_source_lowerings(monkeypatch, program)
    plans = advise_program(program, None, threads=(2,), seeds=(0,))
    assert plans
    assert calls == [program.name]
