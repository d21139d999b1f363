"""Figure 8: importance of the two views per benchmark suite.

Paper findings to reproduce in shape: the views agree broadly (multi-view
beats either alone) and the node-feature view is the more important one on
all three suites.  Each row also gives the accuracy of the multi-view and
both single-view models on the suite, with its size and majority prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.train.importance import view_importance
from repro.experiments.common import ExperimentContext, majority_prior

#: Approximate values read off the paper's Fig. 8 bar chart.
PAPER_FIG_8: Dict[str, Dict[str, float]] = {
    "NPB": {"IMP_n": 0.96, "IMP_s": 0.88},
    "PolyBench": {"IMP_n": 0.94, "IMP_s": 0.90},
    "BOTS": {"IMP_n": 0.90, "IMP_s": 0.82},
}

#: the multi-view model, then the node and structural single-view models
VIEWS = ("MV-GNN", "node view", "structural view")

#: each VIEWS model's accuracy key in a ``view_importance`` row
_ACCURACY_KEYS = ("acc_multi", "acc_n", "acc_s")


@dataclass
class Fig8Row:
    seed: int
    suite: str
    loops: int
    prior: float                     # majority-class share, percent
    accuracy: Dict[str, float]       # per VIEWS model, percent
    importance: Dict[str, float]     # N_multi, N_n, N_s, IMP_n, IMP_s


@dataclass
class Fig8Result:
    rows: List[Fig8Row] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"{'Seed':<6}{'Benchmark':<12}{'Loops':>6}{'Prior':>7}"
            f"{'Acc mv':>8}{'Acc n':>7}{'Acc s':>7}"
            f"{'N_multi':>8}{'N_n':>6}{'N_s':>6}"
            f"{'IMP_n':>8}{'IMP_s':>8}{'paper n':>9}{'paper s':>9}"
        ]
        for row in self.rows:
            imp = row.importance
            acc = [row.accuracy[name] for name in VIEWS]
            paper = PAPER_FIG_8.get(row.suite, {})
            lines.append(
                f"{row.seed:<6}{row.suite:<12}{row.loops:>6}{row.prior:>7.1f}"
                f"{acc[0]:>8.1f}{acc[1]:>7.1f}{acc[2]:>7.1f}"
                f"{imp['N_multi']:>8.0f}{imp['N_n']:>6.0f}{imp['N_s']:>6.0f}"
                f"{imp['IMP_n']:>8.2f}{imp['IMP_s']:>8.2f}"
                f"{paper.get('IMP_n', float('nan')):>9.2f}"
                f"{paper.get('IMP_s', float('nan')):>9.2f}"
            )
        return "\n".join(lines)


def fig8_view_importance(
    ctx: ExperimentContext, seeds: Optional[Sequence[int]] = None
) -> Fig8Result:
    """IMP_n / IMP_s of every non-empty suite (all its loops), per seed
    (default: ``ctx.seed``)."""
    sets = {suite: ctx.data.benchmark.by_suite(suite) for suite in PAPER_FIG_8}
    sets = {suite: data for suite, data in sets.items() if len(data)}
    result = Fig8Result()
    for seed in seeds or (ctx.seed,):
        models = [ctx.trained(name, seed)[0] for name in VIEWS]
        importance = view_importance(*models, sets)
        for suite, data in sets.items():
            row = dict(importance[suite])
            accuracy = {
                name: 100.0 * row.pop(key)
                for name, key in zip(VIEWS, _ACCURACY_KEYS)
            }
            result.rows.append(Fig8Row(
                seed, suite, len(data), majority_prior(data.labels()),
                accuracy, row,
            ))
    return result
