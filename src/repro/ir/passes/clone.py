"""Deep cloning of LinearIR.

Passes rewrite the program they are given; ``apply_pipeline`` clones its
input once and runs every pass on that copy.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.linear import BasicBlock, Instr, IRFunction, IRProgram, LoopInfo


def clone_instr(instr: Instr) -> Instr:
    return Instr(
        iid=instr.iid,
        opcode=instr.opcode,
        operands=tuple(instr.operands),
        result=instr.result,
        meta=dict(instr.meta),
        line=instr.line,
        loop_id=instr.loop_id,
    )


def clone_function(fn: IRFunction) -> IRFunction:
    blocks = [
        BasicBlock(b.label, [clone_instr(i) for i in b.instrs]) for b in fn.blocks
    ]
    loops: Dict[str, LoopInfo] = {
        lid: LoopInfo(
            loop_id=info.loop_id,
            var=info.var,
            header=info.header,
            body_entry=info.body_entry,
            exit=info.exit,
            line=info.line,
            end_line=info.end_line,
            depth=info.depth,
            parent=info.parent,
            function=info.function,
        )
        for lid, info in fn.loops.items()
    }
    return IRFunction(fn.name, fn.params, blocks, loops)


def clone_program(program: IRProgram) -> IRProgram:
    return IRProgram(
        name=program.name,
        functions={n: clone_function(f) for n, f in program.functions.items()},
        arrays=dict(program.arrays),
        entry=program.entry,
    )
