"""Anonymous random-walk embeddings (Definition 1, Eq. 3-4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings.anonwalk import (
    AnonymousWalkSpace,
    anonymize_walk,
    enumerate_anonymous_walks,
    structural_node_features,
)
from repro.errors import EmbeddingError
from repro.peg.graph import EdgeKind, NodeKind, PEG, PEGNode


def _chain_peg(n=5):
    peg = PEG("chain")
    for pos in range(n):
        peg.add_node(PEGNode(f"n{pos}", NodeKind.CU, "main"))
    for pos in range(n - 1):
        peg.add_edge(f"n{pos}", f"n{pos+1}", EdgeKind.DEP)
    return peg


def _star_peg(leaves=4):
    peg = PEG("star")
    peg.add_node(PEGNode("hub", NodeKind.LOOP, "main"))
    for pos in range(leaves):
        peg.add_node(PEGNode(f"leaf{pos}", NodeKind.CU, "main"))
        peg.add_edge("hub", f"leaf{pos}", EdgeKind.CHILD)
    return peg


class TestAnonymize:
    def test_paper_example(self):
        """aw((v1,v2,v3,v4,v2)) keeps first-occurrence structure."""
        assert anonymize_walk(["v1", "v2", "v3", "v4", "v2"]) == (0, 1, 2, 3, 1)

    def test_identity_invariance(self):
        walk_a = ["x", "y", "x", "z"]
        walk_b = ["p", "q", "p", "r"]
        assert anonymize_walk(walk_a) == anonymize_walk(walk_b)

    def test_single_node(self):
        assert anonymize_walk(["only"]) == (0,)


class TestEnumeration:
    @pytest.mark.parametrize("length,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)])
    def test_counts_match_noncrossing_walk_numbers(self, length, count):
        assert len(enumerate_anonymous_walks(length)) == count

    def test_all_start_at_zero_and_never_repeat_immediately(self):
        for walk in enumerate_anonymous_walks(5):
            assert walk[0] == 0
            assert all(a != b for a, b in zip(walk, walk[1:]))

    def test_growth_constraint(self):
        for walk in enumerate_anonymous_walks(5):
            highest = 0
            for value in walk:
                assert value <= highest + 1
                highest = max(highest, value)

    def test_negative_length_rejected(self):
        with pytest.raises(EmbeddingError):
            enumerate_anonymous_walks(-1)


class TestWalkSpace:
    def test_type_of_full_walk(self):
        space = AnonymousWalkSpace(3)
        type_id = space.type_of(["a", "b", "a", "c"])
        assert 0 <= type_id < space.num_types

    def test_truncated_walk_mapped(self):
        space = AnonymousWalkSpace(4)
        # isolated node: walk of length 0 still maps to a valid type
        type_id = space.type_of(["solo"])
        assert 0 <= type_id < space.num_types


def _node_row(peg, node_id, space, gamma, rng):
    """p̂(ω | v) of one node: its row of the structural features."""
    node_ids, features = structural_node_features(peg, space, gamma, rng)
    return features[node_ids.index(node_id)]


class TestDistributions:
    def test_distribution_sums_to_one(self, rng):
        peg = _chain_peg()
        space = AnonymousWalkSpace(4)
        dist = _node_row(peg, "n2", space, gamma=50, rng=rng)
        assert dist.shape == (space.num_types,)
        np.testing.assert_allclose(dist.sum(), 1.0)

    def test_chain_end_vs_star_hub_differ(self, rng):
        """Structurally distinct neighborhoods give distinct distributions."""
        space = AnonymousWalkSpace(4)
        chain_dist = _node_row(
            _chain_peg(), "n0", space, gamma=200, rng=np.random.default_rng(0)
        )
        star_dist = _node_row(
            _star_peg(), "hub", space, gamma=200, rng=np.random.default_rng(0)
        )
        assert np.abs(chain_dist - star_dist).sum() > 0.3

    def test_structural_features_rows_match_nodes(self, rng):
        peg = _star_peg()
        space = AnonymousWalkSpace(3)
        node_ids, features = structural_node_features(peg, space, gamma=20, rng=rng)
        assert features.shape == (len(peg), space.num_types)
        assert node_ids == list(peg.nodes)

    def test_graph_distribution_is_node_mean(self):
        peg = _star_peg()
        space = AnonymousWalkSpace(3)
        _ids, features = structural_node_features(
            peg, space, gamma=30, rng=np.random.default_rng(3)
        )
        dist = features.mean(axis=0)
        assert dist.shape == (space.num_types,)
        np.testing.assert_allclose(dist.sum(), 1.0)

    def test_determinism_with_seed(self):
        peg = _chain_peg()
        space = AnonymousWalkSpace(4)
        d1 = _node_row(peg, "n1", space, gamma=25, rng=9)
        d2 = _node_row(peg, "n1", space, gamma=25, rng=9)
        np.testing.assert_array_equal(d1, d2)


@given(walk=st.lists(st.integers(0, 5), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_anonymize_is_label_invariant(walk):
    shift = [w + 100 for w in walk]
    assert anonymize_walk(walk) == anonymize_walk(shift)


@given(walk=st.lists(st.integers(0, 5), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_anonymize_is_idempotent(walk):
    once = anonymize_walk(walk)
    assert anonymize_walk(once) == once
