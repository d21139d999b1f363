"""Privatization analysis.

A scalar that carries only WAR/WAW dependences at loop level ``L`` — never a
RAW — is written before it is read in every iteration, so each thread can get
a private copy (OpenMP ``private``).  This covers ordinary loop-body
temporaries and the induction variables of nested loops, which is why the
oracle can ignore those dependences when deciding DoALL parallelizability.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.profiler.report import DepKind, ProfileReport


def privatizable_scalars(
    report: ProfileReport,
    loop_id: str,
    array_names: Set[str],
    min_count: int = 1,
) -> Set[str]:
    """Scoped scalar symbols privatizable at ``loop_id``.

    ``array_names`` distinguishes global arrays (never privatizable here)
    from frame-scoped scalars (``fn::var`` symbols).  Dependences carried
    fewer than ``min_count`` times are ignored.
    """
    kinds_by_symbol = report.symbols_carried_by(loop_id, min_count)
    out: Set[str] = set()
    for symbol, kinds in kinds_by_symbol.items():
        if symbol in array_names:
            continue
        if DepKind.RAW in kinds:
            continue  # value flows across iterations: not privatizable
        out.add(symbol)
    return out
