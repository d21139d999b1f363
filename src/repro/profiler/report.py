"""Profiling result containers.

Instruction identity across the whole run is ``InstrKey = (function_name,
iid)`` since iids are only unique per function.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

InstrKey = Tuple[str, int]


class DepKind(enum.Enum):
    """Data-dependence kinds, as in the DiscoPoP dependence files."""

    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"


@dataclass
class DepInfo:
    """Aggregated occurrences of one (source, sink, kind) dependence.

    ``carried`` counts occurrences by the id of the *outermost* loop whose
    iteration differs between source and sink (the loop that carries the
    dependence); ``independent`` counts loop-independent occurrences.
    """

    src: InstrKey
    dst: InstrKey
    kind: DepKind
    symbol: str
    count: int = 0
    independent: int = 0
    carried: Counter = field(default_factory=Counter)

    def is_carried_by(self, loop_id: str) -> bool:
        return self.carried.get(loop_id, 0) > 0


@dataclass
class LoopStats:
    """Dynamic statistics of one loop."""

    loop_id: str
    entries: int = 0
    total_iterations: int = 0
    dyn_instr_count: int = 0

    @property
    def mean_trip_count(self) -> float:
        if self.entries == 0:
            return 0.0
        return self.total_iterations / self.entries


class DepTable(dict):
    """``ProfileReport.deps``: a dict that counts its own edits, so the
    report's :class:`DepIndex` can tell when it is stale.

    Entries are keyed ``(dep.src, dep.dst, dep.kind)``.  Edit the table
    (add, replace or delete an entry), not a :class:`DepInfo` in it, once
    its profiling run has returned.
    """

    version = 0

    def __setitem__(self, key, value):
        self.version += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.version += 1
        super().__delitem__(key)

    def __ior__(self, other):
        self.version += 1
        return super().__ior__(other)

    def clear(self):
        self.version += 1
        super().clear()

    def pop(self, *args):
        self.version += 1
        return super().pop(*args)

    def popitem(self):
        self.version += 1
        return super().popitem()

    def setdefault(self, key, default=None):
        self.version += 1
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self.version += 1
        super().update(*args, **kwargs)


class DepIndex:
    """Slices of one dependence table, built in one pass in table order.

    ``carried`` maps a loop id to the dependences it carries, ``by_src``
    and ``by_dst`` map an instruction to the dependences leaving and
    entering it.  Each slice lists references into the table in table
    order, so a scan of a slice meets dependences in the order a scan of
    the whole table would.
    """

    __slots__ = ("table", "version", "carried", "by_src", "by_dst")

    def __init__(self, table: Dict) -> None:
        self.table = table
        self.version = getattr(table, "version", None)
        carried: Dict[str, List[DepInfo]] = {}
        by_src: Dict[InstrKey, List[DepInfo]] = {}
        by_dst: Dict[InstrKey, List[DepInfo]] = {}
        for dep in table.values():
            for loop_id, n in dep.carried.items():
                if n > 0:
                    carried.setdefault(loop_id, []).append(dep)
            by_src.setdefault(dep.src, []).append(dep)
            by_dst.setdefault(dep.dst, []).append(dep)
        self.carried = carried
        self.by_src = by_src
        self.by_dst = by_dst

    def current(self, table: Dict) -> bool:
        """Whether this index still describes ``table``."""
        return (
            self.table is table
            and isinstance(table, DepTable)
            and self.version == table.version
        )


@dataclass
class ProfileReport:
    """Everything the dynamic profiler learned from one run."""

    program_name: str
    deps: Dict[Tuple[InstrKey, InstrKey, DepKind], DepInfo] = field(
        default_factory=DepTable
    )
    loop_stats: Dict[str, LoopStats] = field(default_factory=dict)
    exec_counts: Counter = field(default_factory=Counter)  # InstrKey -> int
    steps: int = 0
    return_value: Optional[float] = None
    _index: Optional[DepIndex] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- dependence queries ---------------------------------------------------

    def dep_index(self) -> DepIndex:
        """The :class:`DepIndex` of ``deps``, built on first use and rebuilt
        after any edit of the table (every call builds afresh when ``deps``
        is a plain dict, whose edits cannot be seen)."""
        index = self._index
        if index is None or not index.current(self.deps):
            index = self._index = DepIndex(self.deps)
        return index

    def symbols_carried_by(
        self, loop_id: str, min_count: int = 1
    ) -> Dict[str, Set[DepKind]]:
        """Map symbol -> kinds of the dependences ``loop_id`` carries on it
        (outermost-differing semantics) at least ``min_count`` times."""
        out: Dict[str, Set[DepKind]] = {}
        for dep in self.dep_index().carried.get(loop_id, ()):
            if dep.carried[loop_id] >= min_count:
                out.setdefault(dep.symbol, set()).add(dep.kind)
        return out

    def record_loop_entry(self, loop_id: str) -> None:
        stats = self.loop_stats.get(loop_id)
        if stats is None:
            stats = self.loop_stats[loop_id] = LoopStats(loop_id)
        stats.entries += 1

    def record_loop_iteration(self, loop_id: str) -> None:
        stats = self.loop_stats.get(loop_id)
        if stats is None:
            stats = self.loop_stats[loop_id] = LoopStats(loop_id)
        stats.total_iterations += 1

    def summary(self) -> str:
        n_carried = sum(1 for d in self.deps.values() if d.carried)
        return (
            f"ProfileReport({self.program_name}: {self.steps} steps, "
            f"{len(self.deps)} deps ({n_carried} carried), "
            f"{len(self.loop_stats)} loops)"
        )
