"""Dynamic loop features — Table I of the paper — plus per-node features.

Table I features per loop:

=============  =============================================================
N_Inst         number of IR instructions within the loop body (static)
exec_times     total number of iterations the loop executed
CFL            critical path length of the per-iteration dependence graph
ESP            estimated speedup from Amdahl's law using CFL and graph width
incoming_dep   dependences whose source is outside the loop, sink inside
internal_dep   dependences with both endpoints inside the loop
outgoing_dep   dependences whose source is inside, sink outside
=============  =============================================================

ESP follows the paper's description ("a heuristic calculated using the
maximum breadth and critical path length of the dependency graph and
Amdahl's Law"): with per-iteration work ``W`` and critical path ``C``, the
parallelizable fraction is ``p = 1 - C/W`` and the available processor count
is the dependence-graph width ``W/C``; ESP = ``1 / ((1-p) + p/width)``.

Per-CU node features (used in the node-feature view alongside inst2vec):
instruction count, execution count, and in/out dependence degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.analysis.critical_path import dependence_dag, longest_path
from repro.ir.linear import IRProgram, Opcode
from repro.peg.graph import EdgeKind, NodeKind, PEG
from repro.profiler.report import ProfileReport
from repro.profiler.static_info import loop_block_sets, loop_instr_keys

#: Canonical ordering of the Table I feature vector.
FEATURE_NAMES = (
    "n_inst",
    "exec_times",
    "cfl",
    "esp",
    "incoming_dep",
    "internal_dep",
    "outgoing_dep",
)

_PSEUDO = {Opcode.LOOPENTER, Opcode.LOOPNEXT, Opcode.LOOPEXIT}


@dataclass
class LoopFeatures:
    """Table I feature vector for one loop."""

    loop_id: str
    n_inst: int
    exec_times: int
    cfl: int
    esp: float
    incoming_dep: int
    internal_dep: int
    outgoing_dep: int

    def as_array(self) -> np.ndarray:
        return np.array(
            [getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64
        )

    def as_dict(self) -> Dict[str, float]:
        return {name: float(getattr(self, name)) for name in FEATURE_NAMES}


def loop_features(
    program: IRProgram,
    report: ProfileReport,
    loop_id: str,
    block_sets: Optional[Dict[str, Set[str]]] = None,
) -> LoopFeatures:
    """Compute the Table I features of ``loop_id``.

    ``block_sets`` is :func:`loop_block_sets` of the loop's function, for
    callers that compute the features of several loops of one function.
    """
    info = program.all_loops()[loop_id]
    fn = program.function(info.function)
    if block_sets is None:
        block_sets = loop_block_sets(fn)
    keys = loop_instr_keys(fn, loop_id, block_sets)

    n_inst = sum(
        1
        for block in fn.blocks
        for instr in block.instrs
        if (fn.name, instr.iid) in keys and instr.opcode not in _PSEUDO
    )
    stats = report.loop_stats.get(loop_id)
    exec_times = stats.total_iterations if stats is not None else 0

    nodes, adj = dependence_dag(fn, loop_id, report, block_sets)
    cfl = longest_path(nodes, adj)
    work = len(nodes)
    esp = _estimated_speedup(work, cfl)

    # each dependence is met once leaving its source, once entering its sink
    index = report.dep_index()
    incoming = internal = outgoing = 0
    for key in keys:
        for dep in index.by_src.get(key, ()):
            if dep.dst in keys:
                internal += 1
            else:
                outgoing += 1
        for dep in index.by_dst.get(key, ()):
            if dep.src not in keys:
                incoming += 1

    return LoopFeatures(
        loop_id=loop_id,
        n_inst=n_inst,
        exec_times=exec_times,
        cfl=cfl,
        esp=esp,
        incoming_dep=incoming,
        internal_dep=internal,
        outgoing_dep=outgoing,
    )


def _estimated_speedup(work: int, cfl: int) -> float:
    """Amdahl's-law speedup estimate from per-iteration work and CFL."""
    if work <= 0 or cfl <= 0:
        return 1.0
    width = work / cfl
    serial_fraction = cfl / work
    parallel_fraction = 1.0 - serial_fraction
    denom = serial_fraction + (parallel_fraction / max(width, 1.0))
    return 1.0 / denom if denom > 0 else float(work)


def attach_node_features(
    peg: PEG, program: IRProgram, report: ProfileReport
) -> Dict[str, LoopFeatures]:
    """Populate ``node.features`` for every PEG node in place.

    CU nodes get local dynamic features (size, execution count, dependence
    degrees); LOOP nodes get the full Table I vector; FUNC nodes get
    aggregate size features.  All features use log1p compression so the GCNs
    see comparable magnitudes across trip counts.

    Returns the uncompressed Table I vector of every LOOP node by loop id,
    each computed once, so sample extraction can reuse them.
    """
    loop_cache: Dict[str, LoopFeatures] = {}
    # loop_block_sets per function, shared by all loops of the function
    block_sets: Dict[str, Dict[str, Set[str]]] = {}
    loops = program.all_loops()
    for node in peg.nodes.values():
        if node.kind is NodeKind.CU:
            in_deps = sum(
                e.total_deps for e in peg.in_edges(node.node_id, EdgeKind.DEP)
            )
            out_deps = sum(
                e.total_deps for e in peg.out_edges(node.node_id, EdgeKind.DEP)
            )
            carried = sum(
                1
                for e in peg.in_edges(node.node_id, EdgeKind.DEP)
                + peg.out_edges(node.node_id, EdgeKind.DEP)
                if e.carried_loops
            )
            node.features = {
                "n_inst": float(len(node.statements)),
                "exec_times": math.log1p(node.exec_count),
                "cfl": 0.0,
                "esp": 0.0,
                "incoming_dep": math.log1p(in_deps),
                "internal_dep": float(carried),
                "outgoing_dep": math.log1p(out_deps),
            }
        elif node.kind is NodeKind.LOOP and node.loop_id is not None:
            feats = loop_cache.get(node.loop_id)
            if feats is None:
                fn_name = loops[node.loop_id].function
                if fn_name not in block_sets:
                    block_sets[fn_name] = loop_block_sets(
                        program.function(fn_name)
                    )
                feats = loop_cache[node.loop_id] = loop_features(
                    program, report, node.loop_id, block_sets[fn_name]
                )
            node.features = {
                "n_inst": math.log1p(feats.n_inst),
                "exec_times": math.log1p(feats.exec_times),
                "cfl": math.log1p(feats.cfl),
                "esp": math.log1p(feats.esp),
                "incoming_dep": math.log1p(feats.incoming_dep),
                "internal_dep": math.log1p(feats.internal_dep),
                "outgoing_dep": math.log1p(feats.outgoing_dep),
            }
        else:
            total = sum(
                len(peg.nodes[c].statements) for c in peg.children(node.node_id)
            )
            node.features = {name: 0.0 for name in FEATURE_NAMES}
            node.features["n_inst"] = math.log1p(total)
    return loop_cache
