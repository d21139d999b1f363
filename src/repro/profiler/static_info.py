"""Static control-flow queries over LinearIR.

Provides the control-region information DiscoPoP extracts statically:
CFG edges, predecessors, and the block -> innermost-loop mapping derived
from the loop metadata that lowering records.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.linear import IRFunction, IRProgram, Opcode


def cfg_edges(fn: IRFunction) -> List[Tuple[str, str]]:
    """All (source_label, target_label) CFG edges of ``fn``."""
    edges: List[Tuple[str, str]] = []
    for block in fn.blocks:
        for succ in block.successors():
            edges.append((block.label, succ))
    return edges


def predecessors(fn: IRFunction) -> Dict[str, List[str]]:
    """Map block label -> predecessor labels."""
    preds: Dict[str, List[str]] = {b.label: [] for b in fn.blocks}
    for src, dst in cfg_edges(fn):
        preds[dst].append(src)
    return preds


def successors_map(fn: IRFunction) -> Dict[str, Tuple[str, ...]]:
    return {b.label: b.successors() for b in fn.blocks}


def block_loop_map(fn: IRFunction) -> Dict[str, Optional[str]]:
    """Map block label -> id of the innermost loop containing the block.

    Derived from the loop pseudo-instructions: a block belongs to loop L if
    it is reachable from L's body entry without passing through L's exit.
    Headers and latches belong to their own loop; pre-headers and exits do
    not.
    """
    owner: Dict[str, Optional[str]] = {b.label: None for b in fn.blocks}
    # Process loops outermost-first so inner assignments overwrite outer ones.
    loops = sorted(fn.loops.values(), key=lambda info: info.depth)
    succs = successors_map(fn)
    for info in loops:
        seen: Set[str] = set()
        stack = [info.header]
        while stack:
            label = stack.pop()
            if label in seen or label == info.exit:
                continue
            seen.add(label)
            owner[label] = info.loop_id
            for succ in succs.get(label, ()):
                stack.append(succ)
    return owner


def loop_block_sets(fn: IRFunction) -> Dict[str, Set[str]]:
    """Map loop id -> set of block labels inside the loop (header..latch)."""
    succs = successors_map(fn)
    out: Dict[str, Set[str]] = {}
    for info in fn.loops.values():
        seen: Set[str] = set()
        stack = [info.header]
        while stack:
            label = stack.pop()
            if label in seen or label == info.exit:
                continue
            seen.add(label)
            for succ in succs.get(label, ()):
                stack.append(succ)
        out[info.loop_id] = seen
    return out


def program_block_sets(program: IRProgram) -> Dict[str, Set[str]]:
    """:func:`loop_block_sets` of every function of ``program``, merged
    (loop ids are unique in a program, as in ``IRProgram.all_loops``)."""
    out: Dict[str, Set[str]] = {}
    for fn in program.functions.values():
        out.update(loop_block_sets(fn))
    return out


def loop_instr_keys(
    fn: IRFunction,
    loop_id: str,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> Set[Tuple[str, int]]:
    """InstrKeys of all instructions inside ``loop_id`` (incl. nested loops).

    ``block_sets`` is :func:`loop_block_sets` of ``fn``, when already known.
    """
    if block_sets is None:
        block_sets = loop_block_sets(fn)
    blocks = block_sets.get(loop_id)
    if blocks is None:
        return set()
    keys: Set[Tuple[str, int]] = set()
    for block in fn.blocks:
        if block.label in blocks:
            for instr in block.instrs:
                keys.add((fn.name, instr.iid))
    return keys
