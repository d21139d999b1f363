"""Dominator analysis on LinearIR CFGs.

Used by the verifier (defs must dominate uses) and by LICM (hoisting is only
legal into a block that dominates the loop body).  Immediate dominators come
from the Cooper–Harvey–Kennedy iteration over reverse post-order ("A Simple,
Fast Dominance Algorithm"), which settles in a pass or two on the reducible
CFGs the lowering emits; the dominator sets are read off the idom tree.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.linear import IRFunction


def _reverse_postorder(succs: Dict[str, tuple], entry: str) -> List[str]:
    """Blocks reachable from ``entry`` in reverse post-order (iterative
    DFS; successors outside ``succs`` are ignored)."""
    postorder: List[str] = []
    visited = {entry}
    stack = [(entry, iter(succs[entry]))]
    while stack:
        label, pending = stack[-1]
        for succ in pending:
            if succ in succs and succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succs[succ])))
                break
        else:
            stack.pop()
            postorder.append(label)
    postorder.reverse()
    return postorder


def compute_dominators(fn: IRFunction) -> Dict[str, Set[str]]:
    """Map block label -> set of labels dominating it (including itself).

    Unreachable blocks dominate nothing and are reported as dominated only
    by themselves so the verifier still accepts dead blocks a pass left
    behind (DCE cleans them separately).
    """
    if not fn.blocks:
        return {}
    # branches to unknown labels are the verifier's concern; they are
    # ignored here so it can produce its own diagnostic
    succs = {b.label: b.successors() for b in fn.blocks}
    entry = fn.blocks[0].label
    rpo = _reverse_postorder(succs, entry)
    order = {label: i for i, label in enumerate(rpo)}
    preds: Dict[str, List[str]] = {label: [] for label in rpo}
    for label in rpo:
        for succ in succs[label]:
            if succ in order:
                preds[succ].append(label)

    idom = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while order[a] > order[b]:
                a = idom[a]
            while order[b] > order[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for label in rpo[1:]:
            new = None
            for pred in preds[label]:
                if pred in idom:
                    new = pred if new is None else intersect(pred, new)
            if idom.get(label) != new:
                idom[label] = new
                changed = True

    # a block's idom precedes it in reverse post-order
    dom: Dict[str, Set[str]] = {entry: {entry}}
    for label in rpo[1:]:
        dom[label] = dom[idom[label]] | {label}
    for block in fn.blocks:
        dom.setdefault(block.label, {block.label})
    return dom


def dominates(dom: Dict[str, Set[str]], a: str, b: str) -> bool:
    """Does block ``a`` dominate block ``b``?"""
    return a in dom.get(b, ())
