"""Table I feature computation and PEG feature attachment."""

import numpy as np

from repro.analysis.critical_path import dependence_dag, longest_path
from repro.analysis.features import (
    FEATURE_NAMES,
    attach_node_features,
    loop_features,
)
from repro.peg.builder import build_peg
from repro.peg.graph import NodeKind

from tests.helpers import (
    build_mixed_program,
    build_reduction_program,
    build_sequential_program,
    loop_ids,
    profile,
)


class TestLoopFeatures:
    def test_feature_vector_shape_and_names(self):
        program = build_reduction_program()
        ir, report = profile(program)
        feats = loop_features(ir, report, loop_ids(program)[0])
        vec = feats.as_array()
        assert vec.shape == (len(FEATURE_NAMES),)
        assert set(feats.as_dict()) == set(FEATURE_NAMES)

    def test_exec_times_matches_trip_count(self):
        program = build_reduction_program()
        ir, report = profile(program)
        feats = loop_features(ir, report, loop_ids(program)[0])
        assert feats.exec_times == 12

    def test_n_inst_positive_and_static(self):
        program = build_mixed_program()
        ir, report = profile(program)
        for loop_id in loop_ids(program):
            assert loop_features(ir, report, loop_id).n_inst > 0

    def test_recurrence_has_longer_relative_critical_path(self):
        """Sequential chains have a higher CFL/work ratio than DoALL loops."""
        seq = build_sequential_program()
        seq_ir, seq_report = profile(seq)
        seq_feats = loop_features(seq_ir, seq_report, loop_ids(seq)[0])

        red = build_reduction_program()
        red_ir, red_report = profile(red)
        init_feats = loop_features(red_ir, red_report, loop_ids(red)[0])

        seq_ratio = seq_feats.cfl / seq_feats.n_inst
        init_ratio = init_feats.cfl / init_feats.n_inst
        assert seq_ratio > 0 and init_ratio > 0
        assert seq_feats.esp >= 1.0 and init_feats.esp >= 1.0

    def test_dep_counts_partition(self):
        program = build_mixed_program()
        ir, report = profile(program)
        total_deps = len(report.deps)
        loop_id = loop_ids(program)[2]
        feats = loop_features(ir, report, loop_id)
        assert feats.incoming_dep + feats.internal_dep + feats.outgoing_dep <= total_deps
        assert feats.internal_dep > 0


class TestCriticalPath:
    """The per-iteration dependence DAG and its longest path, as
    :func:`loop_features` computes the CFL and ESP features from them."""

    def test_cfl_positive_for_nonempty_loop(self):
        program = build_mixed_program()
        ir, report = profile(program)
        for loop_id in loop_ids(program):
            assert longest_path(
                *dependence_dag(ir.function("main"), loop_id, report)
            ) >= 1

    def test_width_is_work_over_cfl(self):
        program = build_reduction_program()
        ir, report = profile(program)
        loop_id = loop_ids(program)[0]
        nodes, adj = dependence_dag(ir.function("main"), loop_id, report)
        assert len(nodes) / longest_path(nodes, adj) >= 1.0

    def test_unknown_loop_zero(self):
        program = build_reduction_program()
        ir, report = profile(program)
        assert longest_path(
            *dependence_dag(ir.function("main"), "ghost", report)
        ) == 0


class TestAttachNodeFeatures:
    def test_all_nodes_get_features(self):
        program = build_mixed_program()
        ir, report = profile(program)
        peg = build_peg(ir, report)
        attach_node_features(peg, ir, report)
        for node in peg.nodes.values():
            assert set(node.features) == set(FEATURE_NAMES)
            assert all(np.isfinite(v) for v in node.features.values())

    def test_loop_nodes_have_full_vector(self):
        program = build_mixed_program()
        ir, report = profile(program)
        peg = build_peg(ir, report)
        attach_node_features(peg, ir, report)
        loop_nodes = peg.nodes_of_kind(NodeKind.LOOP)
        assert loop_nodes
        for node in loop_nodes:
            assert node.features["exec_times"] > 0
