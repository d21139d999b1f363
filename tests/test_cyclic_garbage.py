"""Hot paths leave no reference cycles behind: recursive helpers and
per-call classes live at module level, so a run's temporaries are freed
by reference counting instead of waiting for the cycle collector."""

import gc

import pytest

from repro.analysis.ranges import harvest_enclosing_bounds
from repro.benchsuite.registry import build_app
from repro.dataset.transforms import op_substitution
from repro.ir.lowering import lower_program
from repro.tools.autopar_lite import AutoParLite
from repro.tools.pluto_lite import PlutoLite


def _unreachable_after(fn) -> int:
    """Objects ``fn`` leaves that only the cycle collector can free."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def bt_program():
    program = build_app("BT").programs[0]
    return program, lower_program(program)


def test_build_app_leaves_no_cycles():
    assert _unreachable_after(lambda: build_app("BT")) == 0


@pytest.mark.parametrize("tool", [PlutoLite, AutoParLite])
def test_tool_predict_leaves_no_cycles(bt_program, tool):
    program, ir = bt_program
    instance = tool()
    assert _unreachable_after(lambda: instance.predict(program, ir)) == 0


def test_range_bounds_and_op_substitution_leave_no_cycles(bt_program):
    program, _ir = bt_program
    assert _unreachable_after(lambda: harvest_enclosing_bounds(program)) == 0
    assert _unreachable_after(lambda: op_substitution(program, rng=3)) == 0
