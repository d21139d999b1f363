"""Graph metrics over PEGs and sub-PEGs.

Quantities used when characterizing graph populations (Park et al. 2012,
the paper's reference [41], argues graph-based characterization beats
non-graph features): size, dependence density, hierarchy depth, degree
statistics, and carried-dependence density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.peg.graph import EdgeKind, NodeKind, PEG


@dataclass
class PEGMetrics:
    """Structural summary of one PEG (or sub-PEG)."""

    n_nodes: int
    n_cus: int
    n_loops: int
    n_dep_edges: int
    n_child_edges: int
    dep_density: float          # dep edges / possible CU pairs
    carried_fraction: float     # dep edges carrying at least one loop
    max_hierarchy_depth: int
    mean_degree: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_nodes": float(self.n_nodes),
            "n_cus": float(self.n_cus),
            "n_loops": float(self.n_loops),
            "n_dep_edges": float(self.n_dep_edges),
            "n_child_edges": float(self.n_child_edges),
            "dep_density": self.dep_density,
            "carried_fraction": self.carried_fraction,
            "max_hierarchy_depth": float(self.max_hierarchy_depth),
            "mean_degree": self.mean_degree,
        }


def peg_metrics(peg: PEG) -> PEGMetrics:
    """Compute structural metrics of ``peg``."""
    cus = peg.nodes_of_kind(NodeKind.CU)
    loops = peg.loop_nodes()
    dep_edges = peg.dep_edges()
    child_edges = [e for e in peg.edges if e.kind is EdgeKind.CHILD]

    n_cus = len(cus)
    possible_pairs = n_cus * (n_cus - 1)
    density = len(dep_edges) / possible_pairs if possible_pairs else 0.0
    carried = sum(1 for e in dep_edges if e.carried_loops)
    carried_fraction = carried / len(dep_edges) if dep_edges else 0.0

    degrees = [
        len(peg.out_edges(nid)) + len(peg.in_edges(nid)) for nid in peg.nodes
    ]
    mean_degree = float(np.mean(degrees)) if degrees else 0.0

    return PEGMetrics(
        n_nodes=len(peg),
        n_cus=n_cus,
        n_loops=len(loops),
        n_dep_edges=len(dep_edges),
        n_child_edges=len(child_edges),
        dep_density=density,
        carried_fraction=carried_fraction,
        max_hierarchy_depth=hierarchy_depth(peg),
        mean_degree=mean_degree,
    )


def hierarchy_depth(peg: PEG) -> int:
    """Longest root-to-leaf chain of CHILD edges."""
    roots = [
        nid
        for nid in peg.nodes
        if not peg.in_edges(nid, EdgeKind.CHILD)
    ]
    best = 0
    for root in roots:
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            for child in peg.children(node):
                stack.append((child, depth + 1))
    return best
