"""GR rules: structural checks on raw model-input arrays.

These are the cheapest rules in the analyzer.  They run on anything that
exposes the ``(adjacency, x_semantic, x_structural)`` array triple — a
:class:`~repro.runtime.engine.GraphInput` at the serving admission gate,
or a :class:`~repro.dataset.types.LoopSample` during dataset assembly and
shard revalidation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.lint.core import LintReport, Severity, rule

#: mirrors repro.serve.wire.MAX_NODES (imported lazily to keep this module
#: usable without the serve stack)
_DEFAULT_MAX_NODES = 4096

GR001 = rule(
    "GR001", "graph", Severity.ERROR,
    "adjacency must be square 2-D and feature row counts must match it",
)
GR002 = rule(
    "GR002", "graph", Severity.ERROR,
    "graph arrays must be free of NaN/Inf",
)
GR003 = rule(
    "GR003", "graph", Severity.ERROR,
    "adjacency must be symmetric, binary, and zero-diagonal",
)
GR004 = rule(
    "GR004", "graph", Severity.ERROR,
    "graph node count must be in [1, MAX_NODES]",
)


def check_graph_arrays(
    report: LintReport,
    adjacency: np.ndarray,
    x_semantic: np.ndarray,
    x_structural: np.ndarray,
    where: str,
    max_nodes: Optional[int] = None,
) -> None:
    """Run GR001–GR004 over one array triple, emitting into ``report``."""
    max_nodes = _DEFAULT_MAX_NODES if max_nodes is None else max_nodes
    adjacency = np.asarray(adjacency)
    x_semantic = np.asarray(x_semantic)
    x_structural = np.asarray(x_structural)

    shape_ok = True
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        report.emit(
            GR001, where,
            f"adjacency is not square 2-D (shape {adjacency.shape})",
            {"shape": list(adjacency.shape)},
        )
        shape_ok = False
    n = int(adjacency.shape[0]) if adjacency.ndim >= 1 else 0
    for name, matrix in (("x_semantic", x_semantic), ("x_structural", x_structural)):
        if matrix.ndim != 2:
            report.emit(
                GR001, where,
                f"{name} is not 2-D (shape {matrix.shape})",
                {"field": name, "shape": list(matrix.shape)},
            )
            shape_ok = False
        elif shape_ok and matrix.shape[0] != n:
            report.emit(
                GR001, where,
                f"{name} has {matrix.shape[0]} rows for {n} nodes",
                {"field": name, "rows": int(matrix.shape[0]), "nodes": n},
            )
            shape_ok = False

    adjacency_finite = True
    for name, matrix in (
        ("adjacency", adjacency),
        ("x_semantic", x_semantic),
        ("x_structural", x_structural),
    ):
        if not matrix.size:
            continue
        finite = np.isfinite(matrix)
        if not finite.all():
            bad = matrix.size - int(np.count_nonzero(finite))
            report.emit(
                GR002, where,
                f"{name} contains {bad} NaN/Inf values",
                {"field": name, "count": bad},
            )
            if name == "adjacency":
                adjacency_finite = False

    # GR003 reads only finite values, so each test is a plain comparison
    if shape_ok and adjacency.size and adjacency_finite:
        if not (adjacency == adjacency.T).all():
            report.emit(GR003, where, "adjacency is not symmetric")
        if not ((adjacency == 0.0) | (adjacency == 1.0)).all():
            report.emit(
                GR003, where, "adjacency has entries outside {0, 1}"
            )
        if np.diagonal(adjacency).any():
            report.emit(GR003, where, "adjacency has self-loop diagonal entries")

    if adjacency.ndim == 2:
        if n < 1:
            report.emit(GR004, where, "graph has zero nodes")
        elif n > max_nodes:
            report.emit(
                GR004, where,
                f"{n} nodes exceeds the {max_nodes} limit",
                {"nodes": n, "max_nodes": max_nodes},
            )
