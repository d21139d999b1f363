"""Math intrinsic semantics in the interpreter."""

import math

import pytest

from repro.errors import InterpreterError
from repro.ir.builder import ProgramBuilder
from repro.ir.lowering import lower_program
from repro.profiler.interpreter import Interpreter


def _eval(expr_builder) -> float:
    pb = ProgramBuilder("t")
    with pb.function("main") as fb:
        fb.ret(expr_builder(fb))
    return Interpreter(lower_program(pb.build()), record=False).run().return_value


class TestIntrinsics:
    def test_sqrt(self):
        assert _eval(lambda fb: fb.call("sqrt", 9.0)) == 3.0

    def test_sqrt_of_negative_clamped(self):
        """Guarded intrinsics never fault on slightly-out-of-domain input
        (augmented variants may drive them there)."""
        assert _eval(lambda fb: fb.call("sqrt", -4.0)) == 0.0

    def test_log_of_nonpositive_clamped(self):
        assert _eval(lambda fb: fb.call("log", 0.0)) == 0.0

    def test_exp_saturates_instead_of_overflowing(self):
        value = _eval(lambda fb: fb.call("exp", 10000.0))
        assert math.isfinite(value)

    def test_trig(self):
        assert _eval(lambda fb: fb.call("cos", 0.0)) == 1.0
        assert _eval(lambda fb: fb.call("sin", 0.0)) == 0.0

    def test_floor_and_fabs(self):
        assert _eval(lambda fb: fb.call("floor", 2.9)) == 2.0
        assert _eval(lambda fb: fb.call("fabs", -7.0)) == 7.0

    def test_pow(self):
        assert _eval(lambda fb: fb.call("pow", 2.0, 10.0)) == 1024.0

    def test_unknown_intrinsic_raises_at_lowering(self):
        from repro.errors import LoweringError

        pb = ProgramBuilder("t")
        with pb.function("main") as fb:
            fb.ret(fb.call("tanh_not_a_thing", 1.0))
        with pytest.raises(LoweringError):
            lower_program(pb.build())

    def test_nested_intrinsics(self):
        assert _eval(
            lambda fb: fb.call("sqrt", fb.call("fabs", -16.0))
        ) == 4.0
