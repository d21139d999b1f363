"""PEG construction from profiled programs."""

from repro.peg.builder import build_peg, func_node_id, loop_node_id
from repro.peg.graph import EdgeKind, NodeKind
from repro.peg.subgraph import all_loop_subpegs, loop_subpeg
from repro.peg.viz import to_dot

import pytest

from repro.errors import GraphError
from tests.helpers import build_mixed_program, loop_ids, profile


@pytest.fixture(scope="module")
def mixed_peg():
    program = build_mixed_program()
    ir, report = profile(program)
    return program, ir, report, build_peg(ir, report)


class TestBuildPeg:
    def test_one_loop_node_per_loop(self, mixed_peg):
        program, ir, report, peg = mixed_peg
        assert len(peg.loop_nodes()) == 4

    def test_function_node_exists(self, mixed_peg):
        _p, _ir, _r, peg = mixed_peg
        assert func_node_id("main") in peg

    def test_loops_are_children_of_function(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        children = set(peg.children(func_node_id("main")))
        for loop_id in loop_ids(program):
            assert loop_node_id(loop_id) in children

    def test_cus_attached_to_their_loops(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        for loop_id in loop_ids(program):
            loop_children = peg.children(loop_node_id(loop_id))
            cu_children = [
                c for c in loop_children if peg.node(c).kind is NodeKind.CU
            ]
            assert cu_children, f"loop {loop_id} has no CU children"

    def test_dep_edges_exist_with_kind_counts(self, mixed_peg):
        _p, _ir, _r, peg = mixed_peg
        deps = peg.dep_edges()
        assert deps
        assert all(e.total_deps > 0 for e in deps)

    def test_recurrence_loop_has_carried_dep_edge(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        rec_loop = loop_ids(program)[2]
        sub = loop_subpeg(peg, rec_loop)
        assert any(rec_loop in e.carried_loops for e in sub.dep_edges())

    def test_exec_counts_propagated(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        loop_node = peg.node(loop_node_id(loop_ids(program)[0]))
        assert loop_node.exec_count == 12  # trip count of the init loop


class TestSubPEGs:
    def test_subpeg_contains_loop_and_descendants(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        loop_id = loop_ids(program)[0]
        sub = loop_subpeg(peg, loop_id)
        assert loop_node_id(loop_id) in sub
        assert all(
            node.kind in (NodeKind.LOOP, NodeKind.CU)
            for node in sub.nodes.values()
        )

    def test_unknown_loop_rejected(self, mixed_peg):
        _p, _ir, _r, peg = mixed_peg
        with pytest.raises(GraphError):
            loop_subpeg(peg, "no-such-loop")

    def test_all_loop_subpegs_cover_every_loop(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        subs = all_loop_subpegs(peg)
        assert set(subs) == set(loop_ids(program))

    def test_context_inclusion_grows_subpeg(self, mixed_peg):
        program, _ir, _r, peg = mixed_peg
        loop_id = loop_ids(program)[1]  # stencil reads the init loop's array
        bare = loop_subpeg(peg, loop_id, include_context=False)
        ctx = loop_subpeg(peg, loop_id, include_context=True)
        assert len(ctx) > len(bare)

    def test_nested_loops_nest_in_subpeg(self):
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder("nest")
        pb.array("m", 16)
        with pb.function("main") as fb:
            with fb.loop("i", 0, 4) as i:
                with fb.loop("j", 0, 4) as j:
                    fb.store("m", fb.add(fb.mul(i, 4.0), j), 1.0)
        program = pb.build()
        ir, report = profile(program)
        peg = build_peg(ir, report)
        outer, inner = loop_ids(program)
        sub = loop_subpeg(peg, outer)
        assert loop_node_id(inner) in sub


class TestViz:
    def test_dot_output_shape(self, mixed_peg):
        _p, _ir, _r, peg = mixed_peg
        dot = to_dot(peg)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "->" in dot

    def test_dot_roundtrip_counts(self, mixed_peg):
        _p, _ir, _r, peg = mixed_peg
        lines = to_dot(peg).splitlines()
        assert sum("[label=" in l and "->" not in l for l in lines) == len(peg)
        assert sum("->" in l for l in lines) == len(peg.edges)
