"""Table IV: NPB case study — identified parallelizable loops per application.

The paper runs the trained MV-GNN over all 787 NPB loops and reports how
many it identifies as parallelizable per application (787 -> 731 overall).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.train.eval import count_identified_parallel
from repro.experiments.common import ExperimentContext

#: Table IV of the paper: app -> (loops, identified parallelizable).
PAPER_TABLE_IV: Dict[str, Tuple[int, int]] = {
    "BT": (184, 176), "SP": (252, 232), "LU": (173, 163), "IS": (25, 20),
    "EP": (10, 9), "CG": (32, 28), "MG": (74, 68), "FT": (37, 35),
}

_NPB_APPS = ("BT", "SP", "LU", "IS", "EP", "CG", "MG", "FT")


@dataclass
class Table4Row:
    app: str
    loops: int
    identified: int
    paper_loops: int
    paper_identified: int


@dataclass
class Table4Result:
    rows: List[Table4Row] = field(default_factory=list)

    def totals(self) -> Tuple[int, int]:
        return (
            sum(r.loops for r in self.rows),
            sum(r.identified for r in self.rows),
        )

    def format(self) -> str:
        lines = [
            f"{'Benchmark':<10}{'Loops':>7}{'Identified':>12}"
            f"{'Paper loops':>13}{'Paper ident.':>14}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.app:<10}{row.loops:>7}{row.identified:>12}"
                f"{row.paper_loops:>13}{row.paper_identified:>14}"
            )
        loops, ident = self.totals()
        lines.append(f"{'Total':<10}{loops:>7}{ident:>12}{787:>13}{731:>14}")
        return "\n".join(lines)


def table4_npb_case_study(ctx: ExperimentContext) -> Table4Result:
    """Count the loops the shared MV-GNN identifies as parallelizable over
    the full NPB benchmark population."""
    adapter, _curves = ctx.trained("MV-GNN")
    result = Table4Result()
    for app in _NPB_APPS:
        data = ctx.data.benchmark.by_app(app)
        identified = count_identified_parallel(adapter, data)
        paper_loops, paper_identified = PAPER_TABLE_IV[app]
        result.rows.append(
            Table4Row(app, len(data), identified, paper_loops, paper_identified)
        )
    return result
