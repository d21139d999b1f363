"""Byte-exact oracle for the vectorized anonymous-walk sampler.

The reference below is the scalar sampler the vectorized one replaced: per
node, one ``(gamma, length)`` draw, then one Python step per walk step over
neighbour lists built in edge order, and ``space.type_of`` per walk.  On
hypothesis-drawn small graphs (isolated nodes, self-edges, which are
dropped, parallel edges, and a node order unrelated to the edge order)
both must give byte-equal features, the same node ids, and leave the
generator in the same state.
"""

from typing import Dict, List

import numpy as np
from hypothesis import given, strategies as st

from repro.embeddings.anonwalk import AnonymousWalkSpace, structural_node_features
from repro.peg.graph import EdgeKind, NodeKind, PEG, PEGNode


def _reference_adjacency(peg: PEG) -> Dict[str, List[str]]:
    adj: Dict[str, List[str]] = {nid: [] for nid in peg.nodes}
    for edge in peg.edges:
        if edge.src == edge.dst:
            continue
        adj[edge.src].append(edge.dst)
        adj[edge.dst].append(edge.src)
    return adj


def _reference_node_distribution(adj, node_id, space, gamma, rng):
    counts = np.zeros(space.num_types)
    draws = rng.random((gamma, space.length))
    for row in range(gamma):
        walk = [node_id]
        current = node_id
        for step in range(space.length):
            nbrs = adj[current]
            if not nbrs:
                break
            current = nbrs[int(draws[row, step] * len(nbrs))]
            walk.append(current)
        counts[space.type_of(walk)] += 1.0
    return counts / gamma


def reference_structural_node_features(peg, space, gamma, rng):
    adj = _reference_adjacency(peg)
    node_ids = list(peg.nodes)
    features = np.zeros((len(node_ids), space.num_types))
    for row, node_id in enumerate(node_ids):
        features[row] = _reference_node_distribution(
            adj, node_id, space, gamma, rng
        )
    return node_ids, features


KINDS = list(EdgeKind)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    peg = PEG("g")
    for name in names:  # node order differs from the order edges name them
        peg.add_node(PEGNode(name, NodeKind.CU, "main"))
    if n:
        pairs = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from(KINDS),
        )
        for a, b, kind in draw(st.lists(pairs, max_size=14)):
            # self-edges and (a, b) / (b, a) or multi-kind parallel edges
            peg.add_edge(f"v{a}", f"v{b}", kind)
    return peg


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(peg=graphs(), length=st.integers(0, 5), gamma=st.integers(1, 31),
       seed=st.integers(0, 2**32 - 1))
def test_features_equal_the_scalar_sampler(peg, length, gamma, seed):
    space = AnonymousWalkSpace(length)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got_ids, got = structural_node_features(peg, space, gamma, got_rng)
    want_ids, want = reference_structural_node_features(
        peg, space, gamma, want_rng
    )
    assert got_ids == want_ids
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))
    assert got_rng.random() == want_rng.random()


@given(peg=graphs().filter(lambda g: len(g) > 0), gamma=st.integers(1, 31),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 6))
def test_one_node_equals_the_scalar_sampler(peg, gamma, seed, pick):
    """Row ``k`` is the scalar sampler's distribution of node ``k`` from
    the ``k``-th ``(gamma, length)`` slice of the stream."""
    space = AnonymousWalkSpace(4)
    pos = pick % len(peg)
    node_id = list(peg.nodes)[pos]
    _ids, got = structural_node_features(
        peg, space, gamma, np.random.default_rng(seed)
    )
    want_rng = np.random.default_rng(seed)
    want_rng.random((pos, gamma, space.length))  # the earlier rows' draws
    want = _reference_node_distribution(
        _reference_adjacency(peg), node_id, space, gamma, want_rng
    )
    assert np.array_equal(bits(got[pos]), bits(want))


def test_isolated_nodes_keep_the_padded_type():
    peg = PEG("g")
    for name in ("a", "b", "c"):
        peg.add_node(PEGNode(name, NodeKind.CU, "main"))
    peg.add_edge("a", "b", EdgeKind.DEP)
    peg.add_edge("c", "c", EdgeKind.DEP)   # a self-edge leaves c isolated
    space = AnonymousWalkSpace(4)
    _ids, features = structural_node_features(peg, space, gamma=9, rng=0)
    padded = np.zeros(space.num_types)
    padded[space.type_of(["c"])] = 1.0
    assert np.array_equal(features[2], padded)
    # a and b can only oscillate, which is the same type
    assert np.array_equal(features[0], padded)

