"""Static reduction recognition on LinearIR.

A scalar ``v`` is a recognized reduction of loop ``L`` when the loop body
contains exactly one store to ``v``, whose stored value is computed from a
load of ``v`` through associative/commutative update operators only
(``+ - * min max`` — the OpenMP reduction operator set we model), and every
read of ``v`` inside the loop is that chain's load.  Such loops are
parallelizable with a ``reduction`` clause even though they carry a RAW
dependence — exactly the pattern on the right of the paper's Fig. 1.

Array reductions (histogramming) are deliberately *not* recognized: the
OpenMP versions of the modeled benchmarks handle those with atomics or
per-thread buckets, and both the paper's labels and DiscoPoP treat the plain
loop as not (trivially) parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.ir.linear import IRFunction, Opcode, Reg
from repro.profiler.static_info import loop_block_sets

#: opcodes allowed on the accumulator update chain
_REDUCTION_OPS = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MIN, Opcode.MAX}

_OP_NAMES = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.MIN: "min",
    Opcode.MAX: "max",
}


@dataclass(frozen=True)
class ReductionInfo:
    """One recognized reduction accumulator."""

    symbol: str        # bare variable name
    scoped: str        # "fn::var" — the profiler's scoped symbol
    operator: str      # "+", "*", "min", "max", "-"
    loop_id: str


def find_reductions(
    fn: IRFunction,
    loop_id: str,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> Dict[str, ReductionInfo]:
    """Recognized reduction accumulators of ``loop_id``, keyed by scoped symbol.

    ``block_sets`` maps loop ids to their block labels — :func:`loop_block_sets`
    of ``fn``, or :func:`~repro.profiler.static_info.program_block_sets` of
    its program — when already known.
    """
    if block_sets is None:
        block_sets = loop_block_sets(fn)
    blocks = block_sets.get(loop_id, set())
    if not blocks:
        return {}

    loads: Dict[str, List] = {}    # var -> [(block, instr)]
    stores: Dict[str, List] = {}
    # def map register -> producing instr, per block
    for block in fn.blocks:
        if block.label not in blocks:
            continue
        for instr in block.instrs:
            if instr.opcode is Opcode.LDVAR:
                loads.setdefault(instr.operands[0], []).append((block, instr))
            elif instr.opcode is Opcode.STVAR:
                stores.setdefault(instr.operands[0], []).append((block, instr))

    out: Dict[str, ReductionInfo] = {}
    for var, store_list in stores.items():
        var_loads = loads.get(var, [])
        # every store must pair with exactly one load in its own block and
        # form a valid update chain; unrolled loops legitimately contain the
        # update twice (one per body copy), so multiple pairs are fine as
        # long as *all* of them are valid and agree on the operator class
        if len(var_loads) != len(store_list):
            continue
        loads_by_block: Dict[int, List] = {}
        for load_block, load in var_loads:
            loads_by_block.setdefault(id(load_block), []).append(load)
        operators = set()
        valid = True
        for block, store in store_list:
            block_loads = loads_by_block.get(id(block), [])
            if len(block_loads) != 1:
                valid = False
                break
            operator = _trace_chain(block, store, block_loads[0])
            if operator is None:
                valid = False
                break
            operators.add(operator)
        if not valid or len(operators) != 1:
            continue
        scoped = f"{fn.name}::{var}"
        out[scoped] = ReductionInfo(
            symbol=var,
            scoped=scoped,
            operator=next(iter(operators)),
            loop_id=loop_id,
        )
    return out


def _trace_chain(block, store, load) -> Optional[str]:
    """Check the stored value flows from ``load`` through reduction ops only.

    Returns the outermost update operator, or None if the chain is invalid.
    The accumulator may appear exactly once on the chain; every op on the
    spine from load to store must be a reduction op, and for the
    non-commutative ``-`` the accumulator must be the left operand.
    """
    defs = {}
    for instr in block.instrs:
        if instr.result is not None:
            defs[instr.result.name] = instr
    value_op = store.operands[1]
    if not isinstance(value_op, Reg):
        return None
    load_reg = load.result.name

    # Walk the spine: the chain of producers from the stored register down to
    # the load register; at each step exactly one operand continues the spine.
    current = defs.get(value_op.name)
    operator: Optional[str] = None
    for _ in range(64):  # spine length bound: no kernel update is deeper
        if current is None:
            return None
        if current is load:
            return operator if operator is not None else None
        if current.opcode not in _REDUCTION_OPS:
            return None
        # All spine ops must belong to one reduction class: +/- mix freely
        # (both reassociate as a sum), but * / min / max must be pure —
        # s = (s + a) * b is not a reduction.
        op_name = _OP_NAMES[current.opcode]
        op_class = "+" if op_name in ("+", "-") else op_name
        if operator is None:
            operator = op_class
        elif operator != op_class:
            return None
        spine_next = None
        for pos, op in enumerate(current.operands):
            if not isinstance(op, Reg):
                continue
            producer = defs.get(op.name)
            if producer is None:
                continue
            if _reaches(defs, producer, load):
                if spine_next is not None:
                    return None  # accumulator appears twice (s = s + s)
                if current.opcode is Opcode.SUB and pos != 0:
                    return None  # s = x - s is not a reduction
                spine_next = producer
        if spine_next is None:
            return None
        current = spine_next
    return None


def _reaches(defs, instr, target) -> bool:
    """Does ``instr``'s value depend (through registers) on ``target``?"""
    stack = [instr]
    seen = set()
    while stack:
        node = stack.pop()
        if node is target:
            return True
        if id(node) in seen:
            continue
        seen.add(id(node))
        for op in node.operands:
            if isinstance(op, Reg):
                producer = defs.get(op.name)
                if producer is not None:
                    stack.append(producer)
    return False
