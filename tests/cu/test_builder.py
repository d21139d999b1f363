"""Computational Unit formation (the paper's Fig. 4 semantics)."""

from repro.cu.builder import build_cus, cu_index_by_instr
from repro.ir.builder import ProgramBuilder
from repro.ir.lowering import lower_program
from repro.ir.linear import MEM_READS, MEM_WRITES


def _cus_for(build_body, arrays=()):
    pb = ProgramBuilder("t")
    for name, size in arrays:
        pb.array(name, size)
    with pb.function("main") as fb:
        build_body(fb)
    ir = lower_program(pb.build())
    return build_cus(ir.function("main")), ir


class TestFig4Semantics:
    def test_independent_variable_chains_split(self):
        """The paper's Fig. 4: x-lines and y-lines form separate CUs."""

        def body(fb):
            fb.assign("x", 3.0)                     # line A: x defined
            fb.assign("a", fb.add("x", 1.0))        # uses x
            fb.assign("b", fb.mul("x", 2.0))        # uses x
            fb.assign("x", fb.add("b", 0.5))        # redefines x (via b)
            fb.assign("y", 4.0)                     # y chain
            fb.assign("c", fb.add("y", 1.0))
            fb.assign("y", fb.mul("c", 2.0))

        cus, _ = _cus_for(body)
        # exactly two CUs in the entry block: the x/a/b cluster and y/c
        entry_cus = [c for c in cus if c.block.startswith("entry")]
        assert len(entry_cus) == 2
        symbols = [set(c.symbols_written()) for c in entry_cus]
        assert {"x", "a", "b"} in symbols
        assert {"y", "c"} in symbols

    def test_same_array_links_accesses(self):
        def body(fb):
            fb.store("arr", 0, 1.0)
            fb.store("arr", 1, 2.0)

        cus, _ = _cus_for(body, arrays=[("arr", 4)])
        assert len([c for c in cus if c.block.startswith("entry")]) == 1

    def test_disjoint_arrays_split(self):
        def body(fb):
            fb.store("a", 0, 1.0)
            fb.store("b", 0, 2.0)

        cus, _ = _cus_for(body, arrays=[("a", 4), ("b", 4)])
        assert len([c for c in cus if c.block.startswith("entry")]) == 2


class TestCUProperties:
    def _loop_cus(self):
        def body(fb):
            with fb.loop("i", 0, 4) as i:
                fb.store("a", i, fb.mul(i, 2.0))

        return _cus_for(body, arrays=[("a", 4)])

    def test_line_ranges(self):
        cus, _ = self._loop_cus()
        for cu in cus:
            assert cu.start_line <= cu.end_line

    def test_loop_attribution(self):
        cus, ir = self._loop_cus()
        loop_id = next(iter(ir.function("main").loops))
        body_cus = [c for c in cus if c.block.startswith("body")]
        assert body_cus and all(c.loop_id == loop_id for c in body_cus)

    def test_every_memory_instruction_in_some_cu(self):
        cus, ir = self._loop_cus()
        index = cu_index_by_instr(cus)
        for instr in ir.function("main").instructions():
            if instr.opcode in MEM_READS or instr.opcode in MEM_WRITES:
                assert ("main", instr.iid) in index

    def test_index_is_consistent(self):
        cus, _ = self._loop_cus()
        index = cu_index_by_instr(cus)
        for cu in cus:
            for key in cu.instr_keys:
                assert index[key] == cu.cu_id

    def test_build_program_cus_covers_all_functions(self):
        pb = ProgramBuilder("t")
        pb.array("a", 4)
        with pb.function("helper", params=("x",)) as hf:
            hf.ret(hf.mul("x", 2.0))
        with pb.function("main") as fb:
            fb.store("a", 0, fb.call("helper", 1.0))
        ir = lower_program(pb.build())
        # the PEG builder forms CUs function by function
        functions = {
            c.function for fn in ir.functions.values() for c in build_cus(fn)
        }
        assert functions == {"main", "helper"}
