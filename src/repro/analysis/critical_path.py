"""Critical path length (CFL) of a loop's dependence graph.

The CFL is the length of the longest chain of dependent instructions inside
one iteration of the loop — the serial core that bounds the speedup any
parallelization can achieve (Kremlin's "self-parallelism" uses the same
quantity).  We build a DAG over the loop's instructions from

* register def-use edges within basic blocks, and
* loop-independent RAW memory dependences observed by the profiler,

and take the longest path (unit instruction weights).  Carried dependences
are excluded — they relate *different* iterations and would create cycles in
the per-iteration view.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.linear import IRFunction, Opcode, Reg
from repro.profiler.report import DepKind, InstrKey, ProfileReport
from repro.profiler.static_info import loop_block_sets

_PSEUDO = {Opcode.LOOPENTER, Opcode.LOOPNEXT, Opcode.LOOPEXIT}


def dependence_dag(
    fn: IRFunction,
    loop_id: str,
    report: ProfileReport,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> Tuple[List[InstrKey], Dict[InstrKey, List[InstrKey]]]:
    """Nodes and forward adjacency of the per-iteration dependence DAG.

    ``block_sets`` is :func:`loop_block_sets` of ``fn``, for callers that
    already computed it.
    """
    if block_sets is None:
        block_sets = loop_block_sets(fn)
    blocks = block_sets.get(loop_id, set())
    nodes: List[InstrKey] = []
    node_set: Set[InstrKey] = set()
    adj: Dict[InstrKey, List[InstrKey]] = {}
    for block in fn.blocks:
        if block.label not in blocks:
            continue
        reg_def: Dict[str, InstrKey] = {}
        for instr in block.instrs:
            if instr.opcode in _PSEUDO:
                continue
            key = (fn.name, instr.iid)
            nodes.append(key)
            node_set.add(key)
            adj.setdefault(key, [])
            for op in instr.operands:
                if isinstance(op, Reg):
                    src = reg_def.get(op.name)
                    if src is not None:
                        adj.setdefault(src, []).append(key)
            if instr.result is not None:
                reg_def[instr.result.name] = key
    # loop-independent RAW memory dependences inside the loop, appended to
    # each source's register successors in dependence-table order
    # (longest_path breaks cycles in DFS order, so the order is part of
    # the result)
    by_src = report.dep_index().by_src
    for src in nodes:
        for dep in by_src.get(src, ()):
            dst = dep.dst
            if (
                dep.kind is DepKind.RAW
                and dep.independent
                and dst in node_set
                and dst != src
            ):
                adj[src].append(dst)
    return nodes, adj


def longest_path(
    nodes: List[InstrKey], adj: Dict[InstrKey, List[InstrKey]]
) -> int:
    """Longest path (in nodes) of a :func:`dependence_dag`."""
    if not nodes:
        return 0
    # Longest path via DFS with memoization; cycles (possible when aggregated
    # loop-independent deps from different control paths disagree) are broken
    # by ignoring back edges to nodes on the current stack.
    memo: Dict[InstrKey, int] = {}
    on_stack: Set[InstrKey] = set()

    order: List[Tuple[InstrKey, int]] = []

    def depth(key: InstrKey) -> int:
        cached = memo.get(key)
        if cached is not None:
            return cached
        # iterative DFS to avoid recursion limits on long blocks
        stack: List[Tuple[InstrKey, int]] = [(key, 0)]
        while stack:
            node, state = stack[-1]
            if state == 0:
                if node in memo:
                    stack.pop()
                    continue
                on_stack.add(node)
                stack[-1] = (node, 1)
                for succ in adj.get(node, ()):
                    if succ not in memo and succ not in on_stack:
                        stack.append((succ, 0))
            else:
                best = 0
                for succ in adj.get(node, ()):
                    if succ in memo:
                        best = max(best, memo[succ])
                memo[node] = 1 + best
                on_stack.discard(node)
                stack.pop()
        return memo[key]

    return max(depth(node) for node in nodes)
