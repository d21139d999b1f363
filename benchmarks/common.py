"""Shared benchmark state.

Experiments are expensive (dataset assembly + model training), so the
harness builds one :class:`ExperimentContext` per session; it trains each
model once (:meth:`ExperimentContext.trained`).  The individual
``bench_*`` files call the ``repro.experiments`` drivers, time well-defined
units (inference over an evaluation suite, one training epoch, table
regeneration) and print the paper-vs-measured rows that EXPERIMENTS.md
records.

Set ``REPRO_FULL=1`` for the paper-fidelity configuration (3100+3100
dataset, 200 epochs, SortPooling k=135) — expect hours on CPU.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

from repro.experiments.common import ExperimentContext, build_context, full_mode

#: populated by benchmarks/conftest.py at pytest_configure time
PYTEST_CONFIG = None

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmark_results"


def _results_file() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    mode = "full" if full_mode() else "fast"
    return RESULTS_DIR / f"results_{mode}.txt"


def emit(text: str) -> None:
    """Print a result line past pytest's capture, and persist it.

    Tables must survive ``pytest benchmarks/ --benchmark-only`` runs, so
    every line goes to ``benchmark_results/results_<mode>.txt`` and, when
    possible, straight to the live terminal.
    """
    with open(_results_file(), "a") as fh:
        fh.write(text + "\n")
    capman = None
    if PYTEST_CONFIG is not None:
        capman = PYTEST_CONFIG.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(text, file=sys.stderr)
    else:
        print(text, file=sys.stderr)


def banner(title: str) -> None:
    emit(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


@functools.lru_cache(maxsize=1)
def get_context() -> ExperimentContext:
    return build_context()
