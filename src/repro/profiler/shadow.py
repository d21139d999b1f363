"""Shadow memory for dynamic dependence detection.

For every memory address ``(symbol, index)`` the shadow tracks the last
writer and the set of readers since that write, each with the iteration
vector at access time.  Dependences are classified against the *outermost*
common loop whose iteration differs (the loop that carries the dependence),
including a per-loop *entry serial* so accesses from different activations of
the same loop are never misattributed as loop-carried.

Dependences are looked up in one ``(src, dst)`` table per kind, so the hot
path never hashes a :class:`DepKind`; a dependence enters ``report.deps``
(keyed ``(src, dst, kind)``) only when it is first seen, which keeps that
dict's insertion order the order in which dependences first occur.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.profiler.report import DepInfo, DepKind, InstrKey, ProfileReport

# An iteration vector entry: (loop_id, entry_serial, iteration)
IterVec = Tuple[Tuple[str, int, int], ...]
DepTable = Dict[Tuple[InstrKey, InstrKey], DepInfo]


def carrying_loop(src_vec: IterVec, dst_vec: IterVec) -> Optional[str]:
    """The id of the outermost loop that carries a dependence between two
    accesses, or ``None`` when the dependence is loop-independent.

    Walks from the outermost position inward while loop ids and entry
    serials match; the first position with a differing iteration is the
    carrier.  A mismatch in loop id or entry serial means the accesses are
    sequentially ordered outside any common loop iteration structure, i.e.
    the dependence is not carried by any loop.
    """
    if src_vec is dst_vec:
        return None
    # entries of a common prefix are usually the same tuple objects
    for src, dst in zip(src_vec, dst_vec):
        if src is not dst and src != dst:
            if src[0] != dst[0] or src[1] != dst[1]:
                return None
            return src[0]
    return None


class ShadowMemory:
    """Tracks last writer / readers per address and emits dependences.

    Each address has one cell, ``[writer key, writer itervec, readers]``
    with ``readers`` mapping reader key -> reader itervec (one slot per
    static reader, in first-read order), held per symbol so an access
    costs two plain dict lookups.
    """

    __slots__ = ("_cells", "_deps", "_raw", "_war", "_waw", "_last_carrier")

    def __init__(self, report: ProfileReport) -> None:
        # symbol -> index -> [writer key, writer itervec, {reader: itervec}]
        self._cells: Dict[str, Dict[int, List]] = {}
        self._deps = report.deps
        self._raw: DepTable = {}
        self._war: DepTable = {}
        self._waw: DepTable = {}
        # (src itervec, dst itervec, carrier) of the last carried lookup:
        # iteration vectors are immutable and shared by every access of one
        # iteration, so consecutive dependences often repeat the pair
        self._last_carrier: Tuple[IterVec, IterVec, Optional[str]] = ((), (), None)

    def _record(
        self,
        table: DepTable,
        kind: DepKind,
        src: InstrKey,
        dst: InstrKey,
        symbol: str,
        src_vec: IterVec,
        dst_vec: IterVec,
    ) -> None:
        pair = (src, dst)
        dep = table.get(pair)
        if dep is None:
            dep = table[pair] = self._deps[(src, dst, kind)] = DepInfo(
                src, dst, kind, symbol
            )
        dep.count += 1
        if src_vec is dst_vec:
            dep.independent += 1
            return
        last = self._last_carrier
        if last[0] is src_vec and last[1] is dst_vec:
            carrier = last[2]
        else:
            carrier = carrying_loop(src_vec, dst_vec)
            self._last_carrier = (src_vec, dst_vec, carrier)
        if carrier is None:
            dep.independent += 1
        else:
            dep.carried[carrier] += 1

    def read(self, symbol: str, index: int, key: InstrKey, itervec: IterVec) -> None:
        """Record a read access; emits a RAW edge from the last writer."""
        cells = self._cells.get(symbol)
        if cells is None:
            cells = self._cells[symbol] = {}
        cell = cells.get(index)
        if cell is None:
            cells[index] = [None, None, {key: itervec}]
            return
        if cell[0] is not None:
            self._record(
                self._raw, DepKind.RAW, cell[0], key, symbol, cell[1], itervec
            )
        cell[2][key] = itervec

    def write(self, symbol: str, index: int, key: InstrKey, itervec: IterVec) -> None:
        """Record a write access; emits WAR edges from readers and a WAW edge
        from the previous writer, then becomes the new last writer."""
        cells = self._cells.get(symbol)
        if cells is None:
            cells = self._cells[symbol] = {}
        cell = cells.get(index)
        if cell is None:
            cells[index] = [key, itervec, {}]
            return
        reads = cell[2]
        if reads:
            war = self._war
            for rkey, rvec in reads.items():
                self._record(war, DepKind.WAR, rkey, key, symbol, rvec, itervec)
            reads.clear()
        if cell[0] is not None:
            self._record(
                self._waw, DepKind.WAW, cell[0], key, symbol, cell[1], itervec
            )
        cell[0] = key
        cell[1] = itervec
