"""Host-speed reference kernel.

A fixed amount of interpreter-bound Python work (dict, list and integer
operations) plus small NumPy work (8x8 matrix products and reductions),
in roughly the mix the measured pipeline runs.  The benchmark times it
between work chunks; its measured-over-nominal ratio is the host speed
factor every timed metric is divided by.

This module must import nothing from ``repro``: the kernel measures the
host, not the program, so no change to the program may move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: loop trip counts of one kernel repetition
PY_STEPS = 12000
NP_STEPS = 250


def _python_part(steps: int) -> int:
    table = {}
    items = []
    acc = 7
    for i in range(steps):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + key) % 1000003
        if i % 16 == 0:
            items.append((acc, key))
    items.sort()
    return acc + len(table) + items[len(items) // 2][0]


def _numpy_part(steps: int) -> float:
    a = np.arange(64.0).reshape(8, 8) / 64.0
    total = 0.0
    for _ in range(steps):
        b = a @ a.T
        a = b / (np.abs(b).max() + 1.0) + 0.25
        total += float(a.sum())
    return total


def kernel_once() -> float:
    """Wall seconds of one kernel repetition."""
    start = time.perf_counter()
    check = _python_part(PY_STEPS) + _numpy_part(NP_STEPS)
    elapsed = time.perf_counter() - start
    if check != check:  # NaN: the NumPy part misbehaved
        raise RuntimeError("reference kernel produced NaN")
    return elapsed


def kernel_sample(reps: int = 3) -> float:
    """Median of ``reps`` kernel repetitions, in seconds."""
    return statistics.median(kernel_once() for _ in range(reps))
