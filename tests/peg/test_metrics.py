"""PEG structural metrics."""

import pytest

from repro.peg import build_peg, all_loop_subpegs
from repro.peg.metrics import hierarchy_depth, peg_metrics

from tests.helpers import build_mixed_program, profile


@pytest.fixture(scope="module")
def mixed():
    program = build_mixed_program()
    ir, report = profile(program)
    return build_peg(ir, report)


class TestMetrics:
    def test_counts_consistent(self, mixed):
        metrics = peg_metrics(mixed)
        assert metrics.n_nodes == len(mixed)
        assert metrics.n_loops == 4
        assert metrics.n_dep_edges + metrics.n_child_edges == len(mixed.edges)

    def test_density_in_unit_interval(self, mixed):
        metrics = peg_metrics(mixed)
        assert 0.0 <= metrics.dep_density <= 1.0
        assert 0.0 <= metrics.carried_fraction <= 1.0

    def test_hierarchy_depth(self, mixed):
        # func -> loop -> CU = 3 levels
        assert hierarchy_depth(mixed) == 3

    def test_nested_loops_deepen_hierarchy(self):
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder("nest")
        pb.array("m", 16)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 4) as i:
                with fb.loop("j", 0, 4) as j:
                    fb.store("m", fb.add(fb.mul(i, 4.0), j), 1.0)
        ir, report = profile(pb.build())
        peg = build_peg(ir, report)
        assert hierarchy_depth(peg) == 4  # func -> loop -> loop -> CU

    def test_mean_degree_positive(self, mixed):
        assert peg_metrics(mixed).mean_degree > 0

    def test_population_summary(self, mixed):
        keys = set(peg_metrics(mixed).as_dict())
        for sub in all_loop_subpegs(mixed).values():
            row = peg_metrics(sub).as_dict()
            assert row["n_loops"] >= 1.0
            assert set(row) == keys
