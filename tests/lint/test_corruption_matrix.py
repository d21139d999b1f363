"""Seeded-corruption matrix: every lint rule catches its corruption class.

Each test starts from a healthy artifact produced by the real pipeline
(lowering, PEG construction, sample extraction), applies one surgical
corruption, and asserts that exactly the targeted rule fires.  The
companion ``TestSeedArtifactsSilent`` class pins the complement: the
analyzer stays silent on everything the seed pipeline produces, so a
finding is always news.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.analysis.features import FEATURE_NAMES
from repro.dataset.extraction import extract_loop_samples
from repro.dataset.types import LoopDataset
from repro.ir import ast_nodes as ast
from repro.ir.linear import Opcode
from repro.lint.advisor_rules import check_advice_plans
from repro.lint.core import LintReport
from repro.lint.runner import (
    lint_dataset,
    lint_graph_arrays,
    lint_ir,
    lint_peg,
    lint_program,
    lint_quantized_consistency,
    lint_samples,
    lint_tape_consistency,
)
from repro.lint.static_dep import StaticVerdict, static_loop_verdicts
from repro.peg.builder import build_peg
from repro.peg.graph import EdgeKind, PEGEdge
from repro.peg.subgraph import all_loop_subpegs

from tests.helpers import (
    build_doall_program,
    build_mixed_program,
    build_reduction_program,
    build_sequential_program,
    lower_and_verify,
    profile,
)


def fired(report):
    return {f.rule_id for f in report.findings}


@pytest.fixture(scope="module")
def mixed_ir():
    return lower_and_verify(build_mixed_program())


@pytest.fixture(scope="module")
def mixed_peg():
    ir, report = profile(build_mixed_program())
    from repro.analysis.features import attach_node_features

    peg = build_peg(ir, report)
    attach_node_features(peg, ir, report)
    return peg


@pytest.fixture(scope="module")
def mixed_samples(tiny_inst2vec, walk_space):
    # labels=None: the dynamic oracle labels every executed loop, so the
    # labels agree with the static prover by construction
    return extract_loop_samples(
        build_mixed_program(),
        None,
        tiny_inst2vec,
        walk_space,
        suite="NPB",
        app="MX",
        gamma=4,
    )


# ---------------------------------------------------------------------------
# Seed artifacts are silent
# ---------------------------------------------------------------------------


class TestSeedArtifactsSilent:
    def test_ast_programs_clean(self):
        for build in (
            build_doall_program,
            build_sequential_program,
            build_reduction_program,
            build_mixed_program,
        ):
            assert lint_program(build()).findings == []

    def test_lowered_ir_clean(self, mixed_ir):
        assert lint_ir(mixed_ir).findings == []

    def test_peg_and_subpegs_clean(self, mixed_peg):
        assert lint_peg(mixed_peg, full_graph=True).findings == []
        for loop_id, sub in all_loop_subpegs(mixed_peg).items():
            assert lint_peg(sub, full_graph=False).findings == [], loop_id

    def test_extracted_samples_clean(self, mixed_samples):
        assert mixed_samples
        assert lint_samples(mixed_samples).findings == []

    def test_dataset_with_crossval_clean(self, mixed_samples):
        program = build_mixed_program()
        report = lint_dataset(
            LoopDataset(list(mixed_samples), "seed"),
            programs={program.name: program},
        )
        assert report.findings == []
        assert report.stats["crossval"]["judged"] > 0
        assert report.stats["crossval"]["contradictions"] == 0


# ---------------------------------------------------------------------------
# IR rules
# ---------------------------------------------------------------------------


class TestIRCorruptions:
    def test_ir001_unreachable_block(self, mixed_ir):
        ir = copy.deepcopy(mixed_ir)
        fn = ir.functions["main"]
        orphan = copy.deepcopy(fn.blocks[-1])
        orphan.label = "orphan"
        fn.blocks.append(orphan)
        fn._block_index = None
        report = lint_ir(ir)
        assert "IR001" in fired(report)
        assert any("orphan" in f.where for f in report.findings)

    def test_ir002_missing_loopenter(self, mixed_ir):
        ir = copy.deepcopy(mixed_ir)
        for block in ir.functions["main"].blocks:
            block.instrs = [
                i for i in block.instrs if i.opcode is not Opcode.LOOPENTER
            ]
        report = lint_ir(ir)
        assert "IR002" in fired(report)
        assert any("loopenter" in f.message for f in report.findings)

    def test_ir002_dangling_header_label(self, mixed_ir):
        ir = copy.deepcopy(mixed_ir)
        fn = ir.functions["main"]
        info = next(iter(fn.loops.values()))
        info.header = "no_such_block"
        assert "IR002" in fired(lint_ir(ir))

    def _one_loop_program(self, lo, hi, step):
        loop = ast.For(
            var="i", lo=ast.Const(lo), hi=ast.Const(hi),
            body=[ast.Assign("x", ast.Var("i"))],
            step=ast.Const(step), loop_id="main:l0",
        )
        fn = ast.Function("main", (), [loop])
        return ast.Program(
            functions={"main": fn}, arrays={}, entry="main", name="deg"
        )

    def test_ir003_nonpositive_step_errors(self):
        report = lint_program(self._one_loop_program(0.0, 8.0, 0.0))
        assert "IR003" in fired(report)
        assert report.errors

    def test_ir003_zero_trip_warns(self):
        report = lint_program(self._one_loop_program(5.0, 5.0, 1.0))
        assert "IR003" in fired(report)
        assert report.warnings and not report.errors

    # -- value-range rules (IR004-IR006) --------------------------------

    def _range_ir(self, make):
        from repro.ir import lower_program
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder("corrupt")
        make(pb)
        return lower_program(pb.build())

    def test_ir004_provable_oob_subscript(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                with fb.loop("i", 0, 8) as i:
                    fb.store("a", fb.add(i, 10.0), 0.0)
                fb.ret(0.0)

        report = lint_ir(self._range_ir(make))
        assert "IR004" in fired(report)
        assert report.errors

    def test_ir004_silent_when_some_execution_in_bounds(self):
        # [0, 7] straddles the size-4 bound: a *possible* OOB is the
        # interpreter's trap to spring, not a static proof
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                with fb.loop("i", 0, 8) as i:
                    fb.store("a", i, 0.0)
                fb.ret(0.0)

        assert "IR004" not in fired(lint_ir(self._range_ir(make)))

    def test_ir005_range_dead_store_errors(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                fb.assign("x", 1.0)
                with fb.if_block(fb.cmp(">", "x", 5.0)):
                    fb.store("a", 0.0, 9.0)
                fb.ret(0.0)

        report = lint_ir(self._range_ir(make))
        assert "IR005" in fired(report)
        assert report.errors

    def test_ir005_dead_edge_without_store_warns(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                fb.assign("x", 1.0)
                with fb.if_block(fb.cmp(">", "x", 5.0)):
                    fb.assign("y", 2.0)
                fb.ret(0.0)

        report = lint_ir(self._range_ir(make))
        assert "IR005" in fired(report)
        assert report.warnings and not report.errors

    def test_ir006_zero_divisor_errors(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                fb.assign("d", 0.0)
                fb.assign("y", fb.div(1.0, "d"))
                fb.store("a", 0.0, "y")
                fb.ret(0.0)

        report = lint_ir(self._range_ir(make))
        assert "IR006" in fired(report)
        assert report.errors

    def test_ir006_zero_trip_loop_warns(self):
        def make(pb):
            pb.array("a", 4)
            with pb.function("main") as fb:
                with fb.loop("i", 5, 2) as i:
                    fb.assign("x", i)
                fb.ret(0.0)

        report = lint_ir(self._range_ir(make))
        ir6 = [f for f in report.findings if f.rule_id == "IR006"]
        assert ir6 and any(
            f.details.get("kind") == "zero_trip" for f in ir6
        )
        assert not report.errors


# ---------------------------------------------------------------------------
# PEG rules
# ---------------------------------------------------------------------------


class TestPEGCorruptions:
    def test_peg001_dangling_endpoints(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        peg.edges.append(PEGEdge("nope", "alsonope", EdgeKind.DEP, {"RAW": 1}))
        report = lint_peg(peg)
        assert "PEG001" in fired(report)
        # dangling src, dangling dst, and absent from the out-index
        assert len([f for f in report.findings if f.rule_id == "PEG001"]) >= 3

    def test_peg001_out_index_mismatch(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        nid = next(nid for nid, idxs in peg._out.items() if idxs)
        peg._out[nid].append(len(peg.edges) + 7)
        assert "PEG001" in fired(lint_peg(peg))

    def test_peg002_reverse_child_edge(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        edge = next(e for e in peg.edges if e.kind is EdgeKind.CHILD)
        peg.add_edge(edge.dst, edge.src, EdgeKind.CHILD)
        report = lint_peg(peg)
        assert "PEG002" in fired(report)
        assert any("cycle" in f.message for f in report.findings)

    def _dep_edge(self, peg):
        for edge in peg.edges:
            if edge.kind is EdgeKind.DEP:
                return edge
        pytest.skip("mixed PEG has no dependence edges")

    def test_peg003_zero_dependences(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        self._dep_edge(peg).dep_counts = {}
        report = lint_peg(peg)
        assert "PEG003" in fired(report)
        assert any("zero dependences" in f.message for f in report.findings)

    def test_peg003_unknown_kind(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        self._dep_edge(peg).dep_counts = {"XXX": 1}
        assert "PEG003" in fired(lint_peg(peg))

    def test_peg003_uncarried_self_dependence(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        nid = next(iter(peg.nodes))
        edge = peg.add_edge(nid, nid, EdgeKind.DEP)
        edge.dep_counts = {"RAW": 2}
        report = lint_peg(peg)
        assert "PEG003" in fired(report)
        assert any("not carried" in f.message for f in report.findings)

    def test_peg003_unknown_carried_loop_full_graph_only(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        edge = self._dep_edge(peg)
        edge.carried_loops = {"ghost:loop"}
        assert "PEG003" in fired(lint_peg(peg, full_graph=True))
        # sub-PEG views legitimately lose the carrying loop's node
        assert "PEG003" not in fired(lint_peg(peg, full_graph=False))

    def test_peg004_nonfinite_feature(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        node = next(iter(peg.nodes.values()))
        node.features[FEATURE_NAMES[0]] = float("nan")
        report = lint_peg(peg)
        assert "PEG004" in fired(report)
        assert report.errors

    def test_peg004_negative_feature(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        node = next(iter(peg.nodes.values()))
        node.features[FEATURE_NAMES[0]] = -1.0
        assert "PEG004" in fired(lint_peg(peg))

    def test_peg004_unknown_feature_warns(self, mixed_peg):
        peg = copy.deepcopy(mixed_peg)
        node = next(iter(peg.nodes.values()))
        node.features["made_up_feature"] = 1.0
        report = lint_peg(peg)
        assert "PEG004" in fired(report)
        assert report.warnings and not report.errors

    def test_peg005_sortpool_truncation(self, mixed_peg):
        report = lint_peg(mixed_peg, full_graph=False, sortpool_k=1)
        assert "PEG005" in fired(report)
        # a whole-program PEG is never SortPooled: no warning there
        assert "PEG005" not in fired(
            lint_peg(mixed_peg, full_graph=True, sortpool_k=1)
        )


# ---------------------------------------------------------------------------
# Graph-array rules
# ---------------------------------------------------------------------------


def _triple(n=3, d_sem=5, d_str=4):
    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return adjacency, np.zeros((n, d_sem)), np.zeros((n, d_str))


class TestGraphArrayCorruptions:
    def test_clean_triple_silent(self):
        assert lint_graph_arrays(*_triple()).findings == []

    def test_gr001_non_square(self):
        adjacency, xs, xst = _triple()
        assert "GR001" in fired(lint_graph_arrays(adjacency[:2], xs, xst))

    def test_gr001_row_mismatch(self):
        adjacency, xs, xst = _triple()
        xs = np.zeros((4, 5))
        report = lint_graph_arrays(adjacency, xs, xst)
        assert "GR001" in fired(report)
        assert any("rows" in f.message for f in report.findings)

    def test_gr002_nan_and_inf(self):
        adjacency, xs, xst = _triple()
        xs[0, 0] = float("nan")
        xst[1, 1] = float("inf")
        report = lint_graph_arrays(adjacency, xs, xst)
        gr2 = [f for f in report.findings if f.rule_id == "GR002"]
        assert {f.details["field"] for f in gr2} == {"x_semantic", "x_structural"}

    def test_gr003_asymmetric(self):
        adjacency, xs, xst = _triple()
        adjacency[0, 1] = 0.0
        assert "GR003" in fired(lint_graph_arrays(adjacency, xs, xst))

    def test_gr003_non_binary(self):
        adjacency, xs, xst = _triple()
        adjacency[0, 1] = adjacency[1, 0] = 2.0
        assert "GR003" in fired(lint_graph_arrays(adjacency, xs, xst))

    def test_gr003_self_loop(self):
        adjacency, xs, xst = _triple()
        adjacency[2, 2] = 1.0
        assert "GR003" in fired(lint_graph_arrays(adjacency, xs, xst))

    def test_gr004_zero_nodes(self):
        report = lint_graph_arrays(
            np.zeros((0, 0)), np.zeros((0, 5)), np.zeros((0, 4))
        )
        assert "GR004" in fired(report)

    def test_gr004_too_many_nodes(self):
        report = lint_graph_arrays(*_triple(), max_nodes=2)
        assert "GR004" in fired(report)


# ---------------------------------------------------------------------------
# Dataset rules
# ---------------------------------------------------------------------------


class TestDatasetCorruptions:
    def test_ds001_ds002_full_duplicate(self, mixed_samples):
        dup = copy.deepcopy(mixed_samples[0])
        report = lint_dataset(LoopDataset(list(mixed_samples) + [dup], "d"))
        assert {"DS001", "DS002"} <= fired(report)

    def test_ds002_reused_id_with_different_content(self, mixed_samples):
        dup = copy.deepcopy(mixed_samples[0])
        dup.loop_features = dup.loop_features + 1.0
        report = lint_dataset(LoopDataset(list(mixed_samples) + [dup], "d"))
        assert "DS002" in fired(report)
        assert "DS001" not in fired(report)

    def test_ds003_balance_drift(self, mixed_samples):
        clones = []
        for i in range(9):
            s = copy.deepcopy(mixed_samples[0])
            s.sample_id = f"{s.sample_id}#clone{i}"
            s.label = 1 if i else 0
            clones.append(s)
        report = lint_dataset(LoopDataset(clones, "skew"))
        assert "DS003" in fired(report)
        assert not report.errors  # balance drift is a warning, not an error

    def test_ds003_needs_enough_samples(self, mixed_samples):
        # 4 samples cannot establish drift: rule stays quiet below 8
        report = lint_dataset(LoopDataset(list(mixed_samples), "small"))
        assert "DS003" not in fired(report)

    def test_ds004_bad_label(self, mixed_samples):
        s = copy.deepcopy(mixed_samples[0])
        s.label = 3
        assert "DS004" in fired(lint_samples([s]))

    def test_ds004_bad_loop_features_shape(self, mixed_samples):
        s = copy.deepcopy(mixed_samples[0])
        s.loop_features = np.zeros(6)
        assert "DS004" in fired(lint_samples([s]))

    def test_ds004_empty_statements(self, mixed_samples):
        s = copy.deepcopy(mixed_samples[0])
        s.statements = []
        assert "DS004" in fired(lint_samples([s]))

    def test_sample_array_corruption_caught_by_gr(self, mixed_samples):
        s = copy.deepcopy(mixed_samples[0])
        s.x_semantic = s.x_semantic.copy()
        s.x_semantic[0, 0] = float("inf")
        assert "GR002" in fired(lint_samples([s]))

    def _provable_sample(self, samples, program):
        verdicts = static_loop_verdicts(program)
        for sample in samples:
            analysis = verdicts.get(sample.loop_id)
            if analysis is None:
                continue
            if analysis.verdict in (
                StaticVerdict.PROVABLY_PARALLEL,
                StaticVerdict.PROVABLY_SERIAL,
            ):
                return sample, analysis
        pytest.skip("no statically provable loop in the fixture")

    def test_ds005_flipped_label(self, mixed_samples):
        program = build_mixed_program()
        samples = copy.deepcopy(list(mixed_samples))
        sample, analysis = self._provable_sample(samples, program)
        sample.label = 1 - sample.label
        report = lint_dataset(
            LoopDataset(samples, "flipped"), programs={program.name: program}
        )
        ds5 = [f for f in report.findings if f.rule_id == "DS005"]
        assert len(ds5) == 1
        assert ds5[0].details["sample_id"] == sample.sample_id
        assert ds5[0].details["verdict"] == analysis.verdict.value
        assert report.stats["crossval"]["contradictions"] == 1

    def test_ds005_quirky_labels_not_judged(self, mixed_samples):
        # deliberate annotation noise (meta["annotation_quirk"]) is counted,
        # not flagged: the label is wrong by design
        program = build_mixed_program()
        samples = copy.deepcopy(list(mixed_samples))
        sample, _ = self._provable_sample(samples, program)
        sample.label = 1 - sample.label
        sample.meta["annotation_quirk"] = True
        report = lint_dataset(
            LoopDataset(samples, "quirk"), programs={program.name: program}
        )
        assert "DS005" not in fired(report)
        assert report.stats["crossval"]["quirky"] == 1

    def test_ds005_transformed_variants_not_judged(self, mixed_samples):
        # a flipped label on a transformed variant is NOT a provable
        # contradiction: passes may change the dependence surface
        program = build_mixed_program()
        samples = copy.deepcopy(list(mixed_samples))
        sample, _ = self._provable_sample(samples, program)
        sample.label = 1 - sample.label
        sample.meta["variant"] = "O9-not-a-plain-variant"
        report = lint_dataset(
            LoopDataset(samples, "gated"), programs={program.name: program}
        )
        assert "DS005" not in fired(report)
        assert report.stats["crossval"]["skipped"] >= 1


# ---------------------------------------------------------------------------
# GR005: tape-compiled vs interpreted forward
# ---------------------------------------------------------------------------


class TestTapeConsistency:
    def test_clean_samples_silent(self, mixed_samples):
        report = lint_tape_consistency(mixed_samples)
        assert "GR005" not in fired(report)
        assert report.stats["tape_consistency"]["graphs"] == len(
            list(mixed_samples)
        )

    def test_empty_input_silent(self):
        report = lint_tape_consistency([])
        assert not report.findings
        assert report.stats["tape_consistency"]["graphs"] == 0

    def test_injected_drift_fires(self, mixed_samples, monkeypatch):
        from repro.runtime.engine import Engine

        original = Engine._forward_compiled

        def skewed(self, batch):
            return original(self, batch) + 1e-3

        monkeypatch.setattr(Engine, "_forward_compiled", skewed)
        report = lint_tape_consistency(mixed_samples)
        gr5 = [f for f in report.findings if f.rule_id == "GR005"]
        assert len(gr5) == 1
        assert gr5[0].details["max_drift"] > 0.0

    def test_injected_nan_fires(self, mixed_samples, monkeypatch):
        from repro.runtime.engine import Engine

        original = Engine._forward_compiled

        def poisoned(self, batch):
            out = np.array(original(self, batch))
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(Engine, "_forward_compiled", poisoned)
        report = lint_tape_consistency(mixed_samples)
        assert any(
            f.rule_id == "GR005" and "NaN" in f.message
            for f in report.findings
        )


# ---------------------------------------------------------------------------
# GR006: quantized fast-tier vs float forward
# ---------------------------------------------------------------------------


class TestQuantizedConsistency:
    def test_clean_samples_silent(self, mixed_samples):
        report = lint_quantized_consistency(mixed_samples)
        assert "GR006" not in fired(report)
        stats = report.stats["quantized_consistency"]
        assert stats["graphs"] == len(list(mixed_samples))
        assert stats["verdict_flips"] == 0
        assert 0.0 <= stats["max_drift"] < 0.1

    def test_empty_input_silent(self):
        report = lint_quantized_consistency([])
        assert not report.findings
        assert report.stats["quantized_consistency"]["graphs"] == 0

    def test_poisoned_activation_scale_fires(self, mixed_samples):
        """The corruption class GR006 exists for: a calibration whose scale
        is in the wrong units (stale checkpoint, bad merge) saturates or
        flattens activations — drift explodes past the budget."""
        from repro.lint.tape_rules import probe_calibration

        calibration = probe_calibration(mixed_samples)
        poisoned = copy.deepcopy(calibration)
        position = max(poisoned.act_scales)  # late op: hits the logits hard
        poisoned.act_scales[position] *= 1e4
        report = lint_quantized_consistency(
            mixed_samples, calibration=poisoned
        )
        gr6 = [f for f in report.findings if f.rule_id == "GR006"]
        assert gr6, "poisoned scale went undetected"
        assert any("budget" in f.message for f in gr6)
        stats = report.stats["quantized_consistency"]
        assert stats["max_drift"] > 0.1
        # ...and the genuine calibration it was forged from stays silent
        clean = lint_quantized_consistency(
            mixed_samples, calibration=calibration
        )
        assert "GR006" not in fired(clean)

    def test_degenerate_scale_fires(self, mixed_samples):
        from repro.lint.tape_rules import probe_calibration

        calibration = probe_calibration(mixed_samples)
        poisoned = copy.deepcopy(calibration)
        # a near-zero scale clips every activation to ~0: the fast logits
        # collapse and drift explodes past the budget
        for position in poisoned.act_scales:
            poisoned.act_scales[position] *= 1e-12
        report = lint_quantized_consistency(
            mixed_samples, calibration=poisoned
        )
        assert "GR006" in fired(report)


# ---------------------------------------------------------------------------
# AD001: stored advice plans vs a fresh prover run
# ---------------------------------------------------------------------------


def check_plans(plans, programs):
    """AD001 over stored plans: (report, number of plans judged)."""
    report = LintReport()
    return report, check_advice_plans(report, plans, programs)


class TestAdvisorPlanCorruptions:
    @pytest.fixture(scope="class")
    def mixed_plans(self):
        from repro.advisor import build_advice_plans
        from repro.ir.builder import ProgramBuilder

        # build_mixed_program's loops plus one branchy loop the
        # range-sharpened prover must still abstain on, so the roster
        # keeps a model_only plan for the drift test
        pb = ProgramBuilder("mixed")
        pb.array("a", 12)
        pb.array("b", 12)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 12) as i:
                fb.store("a", i, fb.add(i, 1.0))
            with fb.loop("i", 1, 11) as i:
                fb.store(
                    "b", i,
                    fb.add(fb.load("a", fb.sub(i, 1.0)),
                           fb.load("a", fb.add(i, 1.0))),
                )
            with fb.loop("i", 1, 12) as i:
                fb.store(
                    "a", i,
                    fb.add(fb.load("a", fb.sub(i, 1.0)), fb.load("b", i)),
                )
            fb.assign("s", 0.0)
            with fb.loop("i", 0, 12) as i:
                fb.assign("s", fb.add("s", fb.load("a", i)))
            with fb.loop("i", 0, 12) as i:
                with fb.if_block(fb.cmp(">", fb.load("b", i), 4.0)):
                    fb.store("b", i, 0.0)
            fb.ret("s")
        program = pb.build()
        ir, report = profile(program)
        plans = build_advice_plans(program, ir, report)
        return program, {lid: p.to_wire() for lid, p in plans.items()}

    def test_fresh_plans_silent(self, mixed_plans):
        program, plans = mixed_plans
        report, judged = check_plans(plans, {program.name: program})
        assert report.findings == []
        assert judged >= 1  # the prover-backed subset

    def test_tampered_tier_fires(self, mixed_plans):
        program, plans = mixed_plans
        poisoned = copy.deepcopy(plans)
        confirmed = next(
            lid for lid, p in poisoned.items()
            if p["tier"] == "prover_confirmed"
        )
        # the corruption class: a plan claiming the prover refuted a loop
        # it actually proved parallel (stale artifact, bad merge)
        poisoned[confirmed]["tier"] = "prover_refuted"
        report, _ = check_plans(poisoned, {program.name: program})
        ad1 = [f for f in report.findings if f.rule_id == "AD001"]
        assert len(ad1) == 1
        assert ad1[0].where == confirmed
        assert ad1[0].details["fresh_verdict"] == "provably_parallel"

    def test_renamed_loop_fires(self, mixed_plans):
        program, plans = mixed_plans
        poisoned = copy.deepcopy(plans)
        confirmed = next(
            lid for lid, p in poisoned.items()
            if p["tier"] == "prover_confirmed"
        )
        plan = poisoned.pop(confirmed)
        plan["loop_id"] = "mixed:main:L99"
        poisoned["mixed:main:L99"] = plan
        report, _ = check_plans(poisoned, {program.name: program})
        assert any(
            f.rule_id == "AD001" and "no longer has" in f.message
            for f in report.findings
        )

    def test_malformed_plan_fires(self, mixed_plans):
        program, plans = mixed_plans
        poisoned = dict(plans)
        poisoned["junk"] = {"loop_id": "only-a-loop-id"}
        report, _ = check_plans(poisoned, {program.name: program})
        assert any(
            f.rule_id == "AD001" and "malformed" in f.message
            for f in report.findings
        )

    def test_unknown_program_skipped(self, mixed_plans):
        _, plans = mixed_plans
        # lint judges what it can reproduce: no program, no verdict
        report, judged = check_plans(plans, {})
        assert report.findings == []
        assert judged == 0

    def test_model_only_drift_not_judged(self, mixed_plans):
        program, plans = mixed_plans
        poisoned = copy.deepcopy(plans)
        model_only = [
            lid for lid, p in poisoned.items() if p["tier"] == "model_only"
        ]
        assert model_only, "mixed program should have a model-only plan"
        for lid in model_only:
            poisoned[lid]["static_verdict"] = "provably_parallel"
        report, _ = check_plans(poisoned, {program.name: program})
        assert "AD001" not in fired(report)
