"""Shared per-program analysis: a content-keyed memo that lives only as
long as its scope, one range fixpoint per distinct program in a dataset
assembly, and analysis failures that are counted instead of swallowed."""

import copy

import pytest

from repro.dataset.assemble import DatasetConfig, assemble_dataset
from repro.dataset.extraction import extract_loop_samples
from repro.dataset.types import LoopDataset
from repro.ir import ast_nodes as ast
from repro.ir import shared
from repro.lint import lint_dataset
from repro.lint import shared_analysis
from repro.lint.shared_analysis import analysis_scope, program_analysis
from repro.lint.static_dep import static_loop_verdicts

from tests.helpers import build_doall_program, build_mixed_program


@pytest.fixture
def analyze_calls(monkeypatch):
    """Names of the IR programs the range engine was run on."""
    calls = []
    real = shared_analysis.analyze_program

    def counting(ir):
        calls.append(ir.name)
        return real(ir)

    monkeypatch.setattr(shared_analysis, "analyze_program", counting)
    return calls


def _unlowerable(program):
    broken = copy.deepcopy(program)
    broken.functions[broken.entry].body.append(ast.CallStmt("no_such_fn"))
    return broken


class TestMemo:
    def test_scope_shares_analysis_of_equal_content(self, analyze_calls):
        with analysis_scope():
            first = program_analysis(build_mixed_program())
            # a separately built AST with the same source is the same program
            second = program_analysis(build_mixed_program())
        assert first is second
        assert analyze_calls == ["mixed"]

    def test_same_name_different_content_is_not_shared(self, analyze_calls):
        small, large = build_mixed_program(12), build_mixed_program(16)
        assert small.name == large.name
        with analysis_scope():
            a, b = program_analysis(small), program_analysis(large)
        assert a.program is small and b.program is large
        assert len(analyze_calls) == 2

    def test_no_scope_no_retention(self, analyze_calls):
        program = build_mixed_program()
        assert program_analysis(program) is not program_analysis(program)
        with analysis_scope():
            program_analysis(program)
        with analysis_scope():
            program_analysis(program)
        assert len(analyze_calls) == 4
        assert shared._SCOPE.get() is None

    def test_nested_scopes_join_the_outer_one(self, analyze_calls):
        program = build_mixed_program()
        with analysis_scope():
            outer = program_analysis(program)
            with analysis_scope():
                assert program_analysis(program) is outer
            assert program_analysis(program) is outer
        assert len(analyze_calls) == 1

    def test_prover_context_and_verdicts_use_the_shared_analysis(
        self, analyze_calls
    ):
        program = build_mixed_program()
        with analysis_scope():
            analysis = program_analysis(program)
            static_loop_verdicts(program)
            static_loop_verdicts(program)
            assert analysis.context is analysis.context
            assert analysis.context.ranges is analysis.ranges
        assert len(analyze_calls) == 1

    def test_classic_prover_skips_the_analysis(self, analyze_calls):
        static_loop_verdicts(build_mixed_program(), use_ranges=False)
        assert analyze_calls == []


class TestFailures:
    def test_unlowerable_program_reports_error(self):
        analysis = program_analysis(_unlowerable(build_doall_program()))
        assert not analysis.ok
        assert "lowering" in analysis.error
        assert analysis.ir is None and analysis.ranges is None
        assert analysis.context is None
        assert analysis.range_error_loops == {}

    def test_engine_failure_reports_error(self, monkeypatch):
        def broken(ir):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(shared_analysis, "analyze_program", broken)
        analysis = program_analysis(build_doall_program())
        assert not analysis.ok
        assert "engine bug" in analysis.error
        assert analysis.ir is not None and analysis.context is None

    def test_crossval_counts_unanalyzable_programs(
        self, tiny_inst2vec, walk_space
    ):
        program = build_mixed_program()
        samples = extract_loop_samples(
            program, None, tiny_inst2vec, walk_space,
            suite="NPB", app="MX", gamma=4,
        )
        pool = LoopDataset(list(samples), "pool")
        healthy = lint_dataset(pool, programs={program.name: program})
        assert healthy.stats["crossval"]["unanalyzable"] == 0

        broken = _unlowerable(program)
        report = lint_dataset(pool, programs={program.name: broken})
        crossval = report.stats["crossval"]
        assert crossval["unanalyzable"] == 1
        # the loops are still judged, by the classic (range-free) prover
        assert crossval["judged"] == healthy.stats["crossval"]["judged"]
        assert crossval["contradictions"] == 0


class TestAssemblyAnalysesOnce:
    # Recorded on the tiny configuration before the shared analysis and
    # the fixpoint speedups: sharing one analysis per program must not
    # move a single sample, drop or DS005 counter.
    CROSSVAL = {
        "contradictions": 0, "judged": 122, "provably_parallel": 67,
        "provably_serial": 41, "quirky": 1, "skipped": 123, "unknown": 14,
        "unanalyzable": 0,
    }
    FINGERPRINTS = {
        "benchmark": "1fef3df39c7640469df016dca25d63673418317b5d7e1276d3ebe315a81e17f2",
        "generated": "1df272d5fcab5ece4232d099128cd8f0092c6f9d52613823604444825f314c81",
        "train": "a9e47c14e6099c8b3186d8afda82ce8738a3bdcdf04242ab486e2f6b09d5805c",
        "test": "bc36d99fdfdd3e5d64180d47a2b9961e3a5835f62890d16f810d857288ed0353",
    }

    def test_tiny_assembly(self, analyze_calls, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = DatasetConfig.tiny()
        config.use_cache = False
        data = assemble_dataset(config)
        # quarantine and crossval share one fixpoint per distinct program
        assert len(analyze_calls) == len(set(analyze_calls)) == 21
        stats = data.stats
        assert stats.crossval == self.CROSSVAL
        assert stats.drops == [] and stats.lint_quarantined == 0
        for split, digest in self.FINGERPRINTS.items():
            assert getattr(data, split).fingerprint() == digest, split
        # the run's memo is gone with the run
        assert shared._SCOPE.get() is None
