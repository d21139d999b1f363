"""Program Execution Graph (PEG) construction and queries."""

from repro.peg.graph import PEG, PEGEdge, PEGNode, NodeKind, EdgeKind
from repro.peg.builder import build_peg
from repro.peg.subgraph import loop_subpeg, all_loop_subpegs
from repro.peg.viz import to_dot
from repro.peg.metrics import PEGMetrics, peg_metrics, hierarchy_depth

__all__ = [
    "PEG", "PEGEdge", "PEGNode", "NodeKind", "EdgeKind",
    "build_peg", "loop_subpeg", "all_loop_subpegs",
    "to_dot",
    "PEGMetrics", "peg_metrics", "hierarchy_depth",
]
