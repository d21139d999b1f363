"""Table III: accuracy of every model and tool per evaluation suite.

Reproduces the full grid: MV-GNN, Static GNN, SVM, Decision Tree, AdaBoost,
NCC (models trained on the balanced train split) and Pluto / AutoPar /
DiscoPoP (votes recorded during extraction), each evaluated on the held-out
loops of NPB, PolyBench, BOTS, and the Generated test split.

Every row carries the number of evaluated loops, the evaluation set's
majority-class prior and the paper's value, so the benchmark harness can
print measured-vs-paper side by side and gate accuracies on the prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dataset.types import LoopDataset
from repro.mlbase import AdaBoost, DecisionTree, KernelSVM, StandardScaler
from repro.mlbase.metrics import accuracy
from repro.train.eval import evaluate_adapter, evaluate_tool_votes
from repro.experiments.common import ExperimentContext, majority_prior

#: Table III of the paper (accuracy %, per suite and method).
PAPER_TABLE_III: Dict[str, Dict[str, float]] = {
    "NPB": {
        "MV-GNN": 92.6, "Static GNN": 89.3, "SVM": 85.0,
        "Decision Tree": 85.0, "AdaBoost": 92.0, "NCC": 87.3,
        "Pluto": 60.5, "AutoPar": 74.8, "DiscoPoP": 91.2,
    },
    "PolyBench": {
        "MV-GNN": 89.4, "NCC": 76.5, "Pluto": 82.5,
        "AutoPar": 76.7, "DiscoPoP": 87.4,
    },
    "BOTS": {
        "MV-GNN": 82.9, "NCC": 72.4, "Pluto": 60.5,
        "AutoPar": 74.8, "DiscoPoP": 78.9,
    },
    "Generated": {
        "MV-GNN": 88.7, "NCC": 62.9, "Pluto": 60.5,
        "AutoPar": 64.8, "DiscoPoP": 80.1,
    },
}

SUITES = ("NPB", "PolyBench", "BOTS", "Generated")
LEARNED = ("MV-GNN", "Static GNN", "NCC")
TOOLS = ("Pluto", "AutoPar", "DiscoPoP")


@dataclass
class Table3Row:
    suite: str
    method: str
    accuracy: float                  # measured, in percent
    loops: int                       # evaluated loops
    prior: float                     # majority-class share of them, percent
    paper: Optional[float]           # paper-reported, in percent
    seed: int

    @classmethod
    def scored(
        cls, suite: str, method: str, fraction: float, data: LoopDataset,
        seed: int,
    ) -> "Table3Row":
        """The row of ``method`` scoring ``fraction`` correct on ``data``."""
        return cls(
            suite, method, 100.0 * fraction, len(data),
            majority_prior(data.labels()),
            PAPER_TABLE_III.get(suite, {}).get(method), seed,
        )

    @property
    def above_prior(self) -> bool:
        """The accuracy beats always answering the majority class."""
        return self.accuracy > self.prior


@dataclass
class Table3Result:
    rows: List[Table3Row] = field(default_factory=list)

    def get(self, suite: str, method: str) -> Optional[Table3Row]:
        """The first seed's row of ``method`` on ``suite``."""
        for row in self.rows:
            if (row.suite, row.method) == (suite, method):
                return row
        return None

    def grid(self) -> Dict[str, Dict[str, float]]:
        """{suite: {method: accuracy}} of the first seed."""
        grid: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            if row.seed == self.rows[0].seed:
                grid.setdefault(row.suite, {})[row.method] = row.accuracy
        return grid

    def format(self) -> str:
        seeded = len({row.seed for row in self.rows}) > 1
        lines = [
            ("Seed  " if seeded else "")
            + f"{'Benchmark':<12}{'Model/Tool':<16}{'Acc(%)':>8}"
            f"{'Loops':>7}{'Prior':>7}{'Paper':>8}"
        ]
        for row in self.rows:
            paper = f"{row.paper:.1f}" if row.paper is not None else "-"
            lines.append(
                (f"{row.seed:<6}" if seeded else "")
                + f"{row.suite:<12}{row.method:<16}{row.accuracy:>8.1f}"
                f"{row.loops:>7}{row.prior:>7.1f}{paper:>8}"
            )
        return "\n".join(lines)


def eval_sets(ctx: ExperimentContext) -> Dict[str, LoopDataset]:
    """The non-empty evaluation set of every suite: held-out benchmark
    loops, and the Generated test split."""
    sets = {
        suite: ctx.data.benchmark_eval(suite) for suite in SUITES[:3]
    }
    sets["Generated"] = ctx.data.test_suite("Generated")
    return {suite: data for suite, data in sets.items() if len(data)}


def table3_accuracy(
    ctx: ExperimentContext, seeds: Optional[Sequence[int]] = None
) -> Table3Result:
    """Fill the Table III grid once per seed (default: ``ctx.seed``)."""
    sets = eval_sets(ctx)
    train = ctx.data.train
    scaler = StandardScaler()
    x_train = scaler.fit_transform(train.feature_matrix())
    y_train = train.labels()
    result = Table3Result()
    for seed in seeds or (ctx.seed,):
        learned = {name: ctx.trained(name, seed)[0] for name in LEARNED}
        # classical baselines on Table I features
        classical = {
            "SVM": KernelSVM(gamma=0.5, epochs=80, rng=seed),
            "Decision Tree": DecisionTree(max_depth=6),
            "AdaBoost": AdaBoost(n_estimators=60, max_depth=2),
        }
        for model in classical.values():
            model.fit(x_train, y_train)
        for suite, data in sets.items():
            x_eval = scaler.transform(data.feature_matrix())
            y_eval = data.labels()
            scores = {
                name: evaluate_adapter(adapter, data)
                for name, adapter in learned.items()
            }
            scores.update(
                (name, accuracy(y_eval, model.predict(x_eval)))
                for name, model in classical.items()
            )
            scores.update(
                (tool, evaluate_tool_votes(tool, data)) for tool in TOOLS
            )
            result.rows.extend(
                Table3Row.scored(suite, name, fraction, data, seed)
                for name, fraction in scores.items()
            )
    return result
