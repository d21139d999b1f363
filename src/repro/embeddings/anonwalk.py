"""Anonymous random-walk structural embeddings (Section III-C, Eq. 3-4).

Following Ivanov & Burnaev (2018) and the paper's Definition 1: a random
walk ``w = (w1..wn)`` maps to its *anonymous* form by replacing each node
with the index of its first occurrence — ``(v1,v2,v3,v2)`` becomes
``(0,1,2,1)``.  For each node we sample ``gamma`` walks of ``length`` edges
over the undirected PEG topology and build the empirical distribution
``p̂(ω | v)`` over the finite space of anonymous walk types (Eq. 3); the
graph-level distribution is the node mean (Eq. 4).

Walks from nodes whose component is too small to sustain ``length`` steps
terminate early; each truncated pattern is mapped to the type of its padded
completion by self-repetition, keeping the distribution a proper probability
vector without a blow-up of the type space.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import EmbeddingError
from repro.peg.graph import PEG
from repro.utils.rng import RngLike, ensure_rng


def anonymize_walk(walk: Sequence) -> Tuple[int, ...]:
    """Map a walk to its anonymous form (first-occurrence indices)."""
    mapping: Dict = {}
    out: List[int] = []
    for node in walk:
        if node not in mapping:
            mapping[node] = len(mapping)
        out.append(mapping[node])
    return tuple(out)


@lru_cache(maxsize=16)
def enumerate_anonymous_walks(length: int) -> Tuple[Tuple[int, ...], ...]:
    """All anonymous walk types of ``length`` edges (``length+1`` nodes).

    A valid type is a sequence starting at 0 where each element is at most
    ``max(prefix)+1`` and consecutive elements differ (graph walks never
    repeat a node immediately because edges connect distinct nodes).
    """
    if length < 0:
        raise EmbeddingError("walk length must be non-negative")
    walks: List[Tuple[int, ...]] = []

    def extend(prefix: Tuple[int, ...], highest: int) -> None:
        if len(prefix) == length + 1:
            walks.append(prefix)
            return
        for nxt in range(highest + 2):
            if nxt != prefix[-1]:
                extend(prefix + (nxt,), max(highest, nxt))

    extend((0,), 0)
    return tuple(walks)


class AnonymousWalkSpace:
    """Index of anonymous walk types for a fixed walk length."""

    def __init__(self, length: int = 4) -> None:
        self.length = length
        self.types = enumerate_anonymous_walks(length)
        self.index: Dict[Tuple[int, ...], int] = {
            t: i for i, t in enumerate(self.types)
        }

    @property
    def num_types(self) -> int:
        return len(self.types)

    def type_of(self, walk: Sequence) -> int:
        """Type index of a (possibly truncated) walk."""
        anonymous = anonymize_walk(walk)
        if len(anonymous) < self.length + 1:
            # pad truncated walks by oscillating on the final step so the
            # padded pattern is a valid anonymous type
            padded = list(anonymous)
            while len(padded) < self.length + 1:
                padded.append(
                    padded[-2] if len(padded) >= 2 else max(padded) + 1
                )
            anonymous = tuple(padded)
        type_id = self.index.get(anonymous)
        if type_id is None:
            raise EmbeddingError(f"invalid anonymous walk {anonymous}")
        return type_id


def structural_node_features(
    peg: PEG,
    space: AnonymousWalkSpace,
    gamma: int = 30,
    rng: RngLike = None,
) -> Tuple[List[str], np.ndarray]:
    """Walk distributions for every node: (node ids, (n, num_types) matrix).

    Row ``i`` is p̂(ω | v) of node ``node ids[i]`` (Eq. 3), in ``peg.nodes``
    order; the row mean is the graph-level p̂(ω | G) (Eq. 4).  The result is
    deterministic in ``(topology, space.length, gamma, rng state)``, so a
    freshly seeded generator makes it a pure function of the seed — what
    :class:`repro.runtime.FeatureCache` relies on.  This is the
    structural-view input; the model projects it through a learned
    walk-type embedding table (the paper's 400-unit layer).
    """
    rng = ensure_rng(rng)
    node_ids = list(peg.nodes)
    starts = np.arange(len(node_ids))
    return node_ids, _walk_distributions(peg, node_ids, starts, space, gamma, rng)


def _neighbour_table(
    peg: PEG, node_ids: List[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """(degrees, padded neighbour table) of the undirected topology.

    Row ``i`` lists node ``i``'s neighbours in edge order, duplicates from
    parallel edges included; self-edges are dropped.
    """
    index = {nid: pos for pos, nid in enumerate(node_ids)}
    neighbours: List[List[int]] = [[] for _ in node_ids]
    for edge in peg.edges:
        if edge.src == edge.dst:
            continue
        a, b = index[edge.src], index[edge.dst]
        neighbours[a].append(b)
        neighbours[b].append(a)
    degrees = np.array([len(nbrs) for nbrs in neighbours], dtype=np.int64)
    width = max(1, int(degrees.max(initial=0)))
    table = np.zeros((len(node_ids), width), dtype=np.int64)
    for row, nbrs in enumerate(neighbours):
        table[row, : len(nbrs)] = nbrs
    return degrees, table


@lru_cache(maxsize=16)
def _type_codes(
    types: Tuple[Tuple[int, ...], ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digit weights, sorted codes, type index of each sorted code).

    A full anonymous walk of ``length`` edges has ``length + 1`` labels,
    each at most ``length``; read as base-``length + 1`` digits they give
    one integer code per walk type.
    """
    width = len(types[0])
    weights = width ** np.arange(width - 1, -1, -1, dtype=np.int64)
    codes = np.asarray(types, dtype=np.int64) @ weights
    order = np.argsort(codes)
    cached = (weights, codes[order], order)
    for array in cached:  # shared by every caller of the cache
        array.flags.writeable = False
    return cached


def _walk_distributions(
    peg: PEG,
    node_ids: List[str],
    starts: np.ndarray,
    space: AnonymousWalkSpace,
    gamma: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(len(starts), space.num_types)`` walk distributions of the nodes
    ``node_ids[s]``, all ``len(starts) * gamma`` walks at once.

    Draws ``rng.random((len(starts), gamma, space.length))``: the stream
    that one ``(gamma, space.length)`` draw per node, in ``starts`` order,
    would consume.  A walk at a node of degree ``d`` steps to its
    neighbour ``int(draw * d)`` in the neighbour table.
    """
    length = space.length
    draws = rng.random((starts.size, gamma, length))
    degrees, table = _neighbour_table(peg, node_ids)
    walks = np.empty((starts.size * gamma, length + 1), dtype=np.int64)
    walks[:, 0] = np.repeat(starts, gamma)
    steps = draws.reshape(walks.shape[0], length)
    for step in range(length):
        current = walks[:, step]
        pick = (steps[:, step] * degrees[current]).astype(np.int64)
        walks[:, step + 1] = table[current, pick]

    # anonymize column by column: a node seen before keeps its label, a
    # new node takes the next one
    anonymous = np.zeros_like(walks)
    seen = np.ones(walks.shape[0], dtype=np.int64)
    for col in range(1, length + 1):
        label = seen.copy()
        for prev in range(col):
            same = walks[:, col] == walks[:, prev]
            label = np.where(same, anonymous[:, prev], label)
        anonymous[:, col] = label
        seen += label == seen

    # a walk from an isolated node stops at once: it is the padded one-node
    # walk, whatever table row it read.  Every other walk is a valid type,
    # as self-edges are dropped and no label can repeat at once.
    isolated = degrees[walks[:, 0]] == 0
    anonymous[isolated] = space.types[space.type_of((0,))]
    weights, codes, type_ids = _type_codes(space.types)
    types = type_ids[np.searchsorted(codes, anonymous @ weights)]

    num_types = space.num_types
    keys = np.repeat(np.arange(starts.size) * num_types, gamma) + types
    counts = np.bincount(keys, minlength=starts.size * num_types)
    return counts.reshape(starts.size, num_types) / gamma

