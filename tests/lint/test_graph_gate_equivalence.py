"""The GR admission gate's findings, pinned case by case.

Each row below is an ``(adjacency, x_semantic, x_structural)`` triple and
the exact findings (rule id, message, details) the GR rules emitted for it
when the table was generated, before the gate was rewritten to run each
array check once.  The table covers the value classes a binary /
finiteness test can get wrong: 0.5, 2.0, -1.0 and -0.0 entries, NaN and
Inf in every array, asymmetry, self-loops, non-square and 1-D adjacency,
zero nodes, a row-count mismatch and the node cap.  A rewrite of
``check_graph_arrays`` must reproduce it unchanged.
"""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.lint.runner import lint_graph_arrays
from repro.serve import wire

MAX_NODES = 4


def _path(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def _feats(n, d=4):
    return np.arange(n * d, dtype=np.float64).reshape(n, d) / 7.0


def _with(a, i, j, value, sym=True):
    a = a.copy()
    a[i, j] = value
    if sym:
        a[j, i] = value
    return a


P = _path(3)

CASES = {
    "valid": (P, _feats(3), _feats(3, 5)),
    "half": (_with(P, 0, 2, 0.5), _feats(3), _feats(3, 5)),
    "two": (_with(P, 0, 2, 2.0), _feats(3), _feats(3, 5)),
    "minus_one": (_with(P, 0, 2, -1.0), _feats(3), _feats(3, 5)),
    "minus_zero": (
        _with(_with(P, 0, 2, -0.0, sym=False), 1, 1, -0.0),
        _feats(3), _feats(3, 5),
    ),
    "nan_adjacency": (_with(P, 0, 2, np.nan), _feats(3), _feats(3, 5)),
    "inf_adjacency": (
        _with(P, 0, 2, np.inf, sym=False), _feats(3), _feats(3, 5),
    ),
    "nan_inf_features": (
        P,
        _with(_feats(3), 0, 1, np.nan, sym=False),
        _with(_with(_feats(3, 5), 2, 4, -np.inf, sym=False), 1, 0, np.nan,
              sym=False),
    ),
    "asymmetric": (_with(P, 0, 2, 1.0, sym=False), _feats(3), _feats(3, 5)),
    "self_loop": (_with(P, 1, 1, 1.0), _feats(3), _feats(3, 5)),
    "all_gr003": (
        _with(_with(P, 0, 2, 2.0, sym=False), 0, 0, 1.0),
        _feats(3), _feats(3, 5),
    ),
    "non_square": (np.zeros((2, 3)), _feats(2), _feats(2, 5)),
    "one_dimensional": (np.zeros(3), _feats(3), _feats(3, 5)),
    "zero_nodes": (np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((0, 5))),
    "row_mismatch": (P, _feats(2), _feats(4, 5)),
    "feature_not_2d": (P, np.zeros(3), _feats(3, 5)),
    "too_many_nodes": (_path(5), _feats(5), _feats(5, 5)),
    "nan_features_asymmetric": (
        _with(P, 0, 2, 1.0, sym=False),
        _with(_feats(3), 2, 3, np.nan, sym=False),
        _feats(3, 5),
    ),
    "non_square_nan": (
        _with(np.zeros((2, 3)), 0, 2, np.nan, sym=False),
        _feats(2), _feats(2, 5),
    ),
    "integer_adjacency": (P.astype(np.int64) * 2, _feats(3), _feats(3, 5)),
}

OUTSIDE = ("GR003", "adjacency has entries outside {0, 1}", {})

EXPECTED = {
    "valid": [],
    "half": [OUTSIDE],
    "two": [OUTSIDE],
    "minus_one": [OUTSIDE],
    "minus_zero": [],
    "nan_adjacency": [
        ("GR002", "adjacency contains 2 NaN/Inf values",
         {"field": "adjacency", "count": 2}),
    ],
    "inf_adjacency": [
        ("GR002", "adjacency contains 1 NaN/Inf values",
         {"field": "adjacency", "count": 1}),
    ],
    "nan_inf_features": [
        ("GR002", "x_semantic contains 1 NaN/Inf values",
         {"field": "x_semantic", "count": 1}),
        ("GR002", "x_structural contains 2 NaN/Inf values",
         {"field": "x_structural", "count": 2}),
    ],
    "asymmetric": [("GR003", "adjacency is not symmetric", {})],
    "self_loop": [("GR003", "adjacency has self-loop diagonal entries", {})],
    "all_gr003": [
        ("GR003", "adjacency is not symmetric", {}),
        OUTSIDE,
        ("GR003", "adjacency has self-loop diagonal entries", {}),
    ],
    "non_square": [
        ("GR001", "adjacency is not square 2-D (shape (2, 3))",
         {"shape": [2, 3]}),
    ],
    "one_dimensional": [
        ("GR001", "adjacency is not square 2-D (shape (3,))", {"shape": [3]}),
    ],
    "zero_nodes": [("GR004", "graph has zero nodes", {})],
    "row_mismatch": [
        ("GR001", "x_semantic has 2 rows for 3 nodes",
         {"field": "x_semantic", "rows": 2, "nodes": 3}),
    ],
    "feature_not_2d": [
        ("GR001", "x_semantic is not 2-D (shape (3,))",
         {"field": "x_semantic", "shape": [3]}),
    ],
    "too_many_nodes": [
        ("GR004", "5 nodes exceeds the 4 limit",
         {"nodes": 5, "max_nodes": 4}),
    ],
    "nan_features_asymmetric": [
        ("GR002", "x_semantic contains 1 NaN/Inf values",
         {"field": "x_semantic", "count": 1}),
        ("GR003", "adjacency is not symmetric", {}),
    ],
    "non_square_nan": [
        ("GR001", "adjacency is not square 2-D (shape (2, 3))",
         {"shape": [2, 3]}),
        ("GR002", "adjacency contains 1 NaN/Inf values",
         {"field": "adjacency", "count": 1}),
    ],
    "integer_adjacency": [OUTSIDE],
}


def test_table_covers_every_case():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lint_findings_match_table(name):
    report = lint_graph_arrays(
        *CASES[name], where="loop #0", max_nodes=MAX_NODES
    )
    got = [(f.rule_id, f.message, f.details) for f in report.findings]
    assert got == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_gate_raises_exactly_the_table(name, monkeypatch):
    monkeypatch.setattr(wire, "MAX_NODES", MAX_NODES)
    if not EXPECTED[name]:
        wire.validate_graph_arrays(*CASES[name], where="loop #0")
        return
    with pytest.raises(GraphValidationError) as info:
        wire.validate_graph_arrays(*CASES[name], where="loop #0")
    got = [
        (f["rule_id"], f["message"], f["details"])
        for f in info.value.findings
    ]
    assert got == EXPECTED[name]
    assert all(f["severity"] == "ERROR" for f in info.value.findings)
