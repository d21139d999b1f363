"""Application registry and Table II conformance.

``TABLE_II_COUNTS`` is the paper's Table II verbatim; ``build_app`` checks
the composed application against it so any plan drift fails loudly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.errors import DatasetError

if TYPE_CHECKING:  # the IR and numpy load with the first build_app
    from repro.benchsuite.base import AppSpec

#: Table II of the paper: application -> number of for-loops.
TABLE_II_COUNTS: Dict[str, int] = {
    "BT": 184,
    "SP": 252,
    "LU": 173,
    "IS": 25,
    "EP": 10,
    "CG": 32,
    "MG": 74,
    "FT": 37,
    "2mm": 17,
    "jacobi-2d": 10,
    "syr2k": 11,
    "trmm": 9,
    "fib": 2,
    "nqueens": 4,
}

SUITE_OF_APP: Dict[str, str] = {
    "BT": "NPB", "SP": "NPB", "LU": "NPB", "IS": "NPB",
    "EP": "NPB", "CG": "NPB", "MG": "NPB", "FT": "NPB",
    "2mm": "PolyBench", "jacobi-2d": "PolyBench",
    "syr2k": "PolyBench", "trmm": "PolyBench",
    "fib": "BOTS", "nqueens": "BOTS",
}

_APP_SEEDS: Dict[str, int] = {
    name: 1000 + pos for pos, name in enumerate(TABLE_II_COUNTS)
}


def app_names() -> List[str]:
    return list(TABLE_II_COUNTS)


def build_app(name: str, seed_offset: int = 0) -> AppSpec:
    """Compose one application and verify its Table II loop count."""
    from repro.benchsuite.apps import compose_app

    if name not in TABLE_II_COUNTS:
        raise DatasetError(
            f"unknown application {name!r}; known: {app_names()}"
        )
    spec = compose_app(
        name, SUITE_OF_APP[name], seed=_APP_SEEDS[name] + seed_offset
    )
    spec.validate(TABLE_II_COUNTS[name])
    return spec


def build_all_apps(seed_offset: int = 0) -> List[AppSpec]:
    return [build_app(n, seed_offset) for n in app_names()]
