"""Code embeddings: inst2vec (skip-gram over IR statements) and anonymous
random-walk structural distributions."""

from repro.embeddings.vocab import Vocabulary, build_vocabulary
from repro.embeddings.inst2vec import Inst2Vec, build_statement_corpus
from repro.embeddings.anonwalk import (
    anonymize_walk,
    enumerate_anonymous_walks,
    AnonymousWalkSpace,
    structural_node_features,
)

__all__ = [
    "Vocabulary", "build_vocabulary",
    "Inst2Vec", "build_statement_corpus",
    "anonymize_walk", "enumerate_anonymous_walks", "AnonymousWalkSpace",
    "structural_node_features",
]
