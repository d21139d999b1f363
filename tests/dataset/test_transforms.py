"""Augmentation transforms: semantics/labels of transformed programs."""

import numpy as np
import pytest

from repro.analysis import classify_all_loops
from repro.dataset.transforms import (
    apply_transform,
    dependence_injection,
    loop_order_modification,
    op_substitution,
)
from repro.errors import DatasetError
from repro.ir.ast_nodes import For, clone_program, walk_stmts
from repro.ir.builder import ProgramBuilder

from tests.helpers import (
    build_doall_program,
    build_mixed_program,
    loop_ids,
    lower_and_verify,
    profile,
    run_and_state,
)


class TestClone:
    def test_clone_is_independent(self):
        program = build_mixed_program()
        copy = clone_program(program)
        copy.functions["main"].body.clear()
        assert program.functions["main"].body


class TestOpSubstitution:
    def test_programs_still_run(self):
        program = build_mixed_program()
        for seed in range(5):
            transformed = op_substitution(program, rng=seed, rate=0.6)
            run_and_state(transformed)  # must not crash

    def test_loop_inventory_preserved(self):
        program = build_mixed_program()
        transformed = op_substitution(program, rng=1)
        assert loop_ids(transformed) == loop_ids(program)

    def test_zero_rate_is_semantics_identity(self):
        program = build_mixed_program()
        transformed = op_substitution(program, rng=0, rate=0.0)
        assert run_and_state(transformed) == run_and_state(program)

    def test_subscripts_untouched(self):
        """Index expressions must not change (access patterns preserved)."""
        pb = ProgramBuilder("p")
        pb.array("a", 16)
        with pb.function("main") as fb:
            with fb.loop("i", 1, 16) as i:
                fb.store("a", i, fb.load("a", fb.sub(i, 1.0)))
        program = pb.build()
        for seed in range(8):
            transformed = op_substitution(program, rng=seed, rate=1.0)
            ir, report = profile(transformed)
            results = classify_all_loops(ir, report)
            assert not results[loop_ids(transformed)[0]].parallel


class TestLoopOrder:
    def test_perfect_nest_interchanged(self):
        pb = ProgramBuilder("p")
        pb.array("m", 48)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 6) as i:
                with fb.loop("j", 0, 8) as j:
                    fb.store("m", fb.add(fb.mul(i, 8.0), j), 1.0)
        program = pb.build()
        transformed = loop_order_modification(program)
        loops = [
            s
            for s in walk_stmts(transformed.functions["main"].body)
            if isinstance(s, For)
        ]
        assert loops[0].var == "j" and loops[1].var == "i"
        assert loops[0].hi.value == 8.0

    def test_imperfect_nest_untouched(self):
        program = build_mixed_program()  # flat loops, no perfect 2-nests
        transformed = loop_order_modification(program)
        assert run_and_state(transformed) == run_and_state(program)


class TestDependenceInjection:
    def test_serializes_doall_loops(self):
        program = build_doall_program()
        transformed = dependence_injection(program, rng=0, fraction=1.0)
        ir, report = profile(transformed)
        results = classify_all_loops(ir, report)
        for loop_id in loop_ids(program):
            assert not results[loop_id].parallel, loop_id

    def test_creates_sink_arrays(self):
        program = build_doall_program()
        transformed = dependence_injection(program, rng=0, fraction=1.0)
        assert any(name.startswith("sink_") for name in transformed.arrays)

    def test_zero_fraction_identity_semantics(self):
        program = build_doall_program()
        transformed = dependence_injection(program, rng=0, fraction=0.0)
        assert run_and_state(transformed)[1]["a"] == run_and_state(program)[1]["a"]

    def test_transformed_program_still_verifies(self):
        program = build_mixed_program()
        transformed = dependence_injection(program, rng=3, fraction=0.7)
        lower_and_verify(transformed)


class TestApplyTransform:
    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError):
            apply_transform(build_doall_program(), "mystery")

    @pytest.mark.parametrize("name", ["ops", "order", "dep"])
    def test_known_names_run(self, name):
        transformed = apply_transform(build_mixed_program(), name, rng=0)
        run_and_state(transformed)
