"""Static CFG queries."""

from repro.ir.builder import ProgramBuilder
from repro.ir.lowering import lower_program
from repro.profiler.static_info import (
    block_loop_map,
    cfg_edges,
    loop_block_sets,
    loop_instr_keys,
    predecessors,
)

from tests.helpers import build_mixed_program


def _nested_ir():
    pb = ProgramBuilder("p")
    pb.array("m", 16)
    with pb.function("main") as fb:
        fb.assign("pre", 0.0)
        with fb.loop("i", 0, 4) as i:
            with fb.loop("j", 0, 4) as j:
                fb.store("m", fb.add(fb.mul(i, 4.0), j), 1.0)
        fb.assign("post", 0.0)
    return lower_program(pb.build())


class TestCFG:
    def test_edges_and_predecessors_consistent(self):
        ir = lower_program(build_mixed_program())
        fn = ir.function("main")
        edges = cfg_edges(fn)
        preds = predecessors(fn)
        for src, dst in edges:
            assert src in preds[dst]

    def test_loop_headers_have_two_predecessors(self):
        ir = lower_program(build_mixed_program())
        fn = ir.function("main")
        preds = predecessors(fn)
        for info in fn.loops.values():
            assert len(preds[info.header]) == 2  # preheader + latch


class TestLoopOwnership:
    def test_inner_blocks_owned_by_inner_loop(self):
        ir = _nested_ir()
        fn = ir.function("main")
        owner = block_loop_map(fn)
        inner = next(l for l in fn.loops.values() if l.depth == 1)
        outer = next(l for l in fn.loops.values() if l.depth == 0)
        assert owner[inner.body_entry] == inner.loop_id
        assert owner[outer.body_entry] == outer.loop_id
        assert owner[fn.blocks[0].label] is None  # entry outside loops

    def test_loop_block_sets_nest(self):
        ir = _nested_ir()
        fn = ir.function("main")
        sets = loop_block_sets(fn)
        inner = next(l for l in fn.loops.values() if l.depth == 1)
        outer = next(l for l in fn.loops.values() if l.depth == 0)
        assert sets[inner.loop_id] <= sets[outer.loop_id]

    def test_exit_not_in_loop(self):
        ir = _nested_ir()
        fn = ir.function("main")
        sets = loop_block_sets(fn)
        for info in fn.loops.values():
            assert info.exit not in sets[info.loop_id]

    def test_loop_instr_keys_cover_stores(self):
        ir = _nested_ir()
        fn = ir.function("main")
        inner = next(l for l in fn.loops.values() if l.depth == 1)
        keys = loop_instr_keys(fn, inner.loop_id)
        from repro.ir.linear import Opcode

        store_keys = {
            ("main", i.iid)
            for b in fn.blocks
            for i in b.instrs
            if i.opcode is Opcode.STORE
        }
        assert store_keys <= keys

    def test_loop_children_tree(self):
        ir = _nested_ir()
        fn = ir.function("main")
        outer = next(l for l in fn.loops.values() if l.depth == 0)
        inner = next(l for l in fn.loops.values() if l.depth == 1)
        assert outer.parent is None
        assert inner.parent == outer.loop_id
        assert len(fn.loops) == 2
