"""The walk-feature cache key covers everything the walk sampler reads.

The sampler follows each node's neighbour list in edge order and keeps
parallel edges, so two sub-PEGs over one node set can walk differently
when their edges are listed in another order or one edge is doubled.
Such a pair must get distinct cache keys (or equal features): a shared
key would serve whichever was computed first.  Edge direction does not
change the neighbour lists, so it must not change the key either.
"""

import numpy as np
import pytest

from repro.embeddings.anonwalk import AnonymousWalkSpace, structural_node_features
from repro.peg.graph import EdgeKind, NodeKind, PEG, PEGNode
from repro.runtime import FeatureCache
from repro.utils.cache import DiskCache
from repro.utils.rng import ensure_rng

GAMMA = 30
SEED = 5
NODES = ("loop", "a", "b", "c")
EDGES = (
    ("loop", "a", EdgeKind.CHILD),
    ("loop", "b", EdgeKind.CHILD),
    ("loop", "c", EdgeKind.CHILD),
    ("a", "b", EdgeKind.DEP),
    ("b", "c", EdgeKind.DEP),
)


def _peg(edges):
    peg = PEG("sub")
    for nid in NODES:
        kind = NodeKind.LOOP if nid == "loop" else NodeKind.CU
        peg.add_node(PEGNode(nid, kind, "main"))
    for src, dst, kind in edges:
        peg.add_edge(src, dst, kind)
    return peg


VARIANTS = {
    "listed": _peg(EDGES),
    "reordered": _peg(EDGES[::-1]),
    "duplicated-in-reverse": _peg(EDGES + (("b", "a", EdgeKind.DEP),)),
}


def _fresh(peg, space):
    return structural_node_features(peg, space, gamma=GAMMA, rng=ensure_rng(SEED))[1]


def test_found_cases_walk_differently():
    """The cases are only a regression test if their walks differ."""
    space = AnonymousWalkSpace(4)
    fresh = [_fresh(peg, space).tobytes() for peg in VARIANTS.values()]
    assert len(set(fresh)) == len(fresh)


@pytest.mark.parametrize("order", [list(VARIANTS), list(VARIANTS)[::-1]])
def test_cache_serves_what_the_sampler_computes(tmp_path, order):
    space = AnonymousWalkSpace(4)
    cache = FeatureCache(DiskCache(tmp_path))
    for name in order:
        served = cache.structural_features(VARIANTS[name], space, GAMMA, SEED)
        np.testing.assert_array_equal(served, _fresh(VARIANTS[name], space), err_msg=name)
    assert cache.misses == len(order)


def test_edge_direction_shares_a_key(tmp_path):
    space = AnonymousWalkSpace(4)
    flipped = _peg(tuple((dst, src, kind) for src, dst, kind in EDGES))
    np.testing.assert_array_equal(_fresh(flipped, space), _fresh(VARIANTS["listed"], space))
    cache = FeatureCache(DiskCache(tmp_path))
    cache.structural_features(VARIANTS["listed"], space, GAMMA, SEED)
    served = cache.structural_features(flipped, space, GAMMA, SEED)
    assert (cache.hits, cache.misses) == (1, 1)
    np.testing.assert_array_equal(served, _fresh(flipped, space))
