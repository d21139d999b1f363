"""inst2vec: skip-gram embeddings of IR statements (Ben-Nun et al. 2018).

The original inst2vec trains word2vec over a *contextual flow graph* of LLVM
IR statements.  We reproduce the algorithm on LinearIR: training pairs are
drawn from

* sliding windows over each basic block (sequential context), and
* register def-use pairs (dataflow context — the XFG edges),

and trained with skip-gram + negative sampling (numpy SGD, vectorized over
mini-batches of pairs).  The embedding dimension defaults to 200 to match
the paper's node-feature dimensionality.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EmbeddingError
from repro.ir.linear import IRProgram, Reg
from repro.ir.printer import statement_text
from repro.embeddings.vocab import Vocabulary, build_vocabulary
from repro.utils.rng import RngLike, ensure_rng


def build_statement_corpus(
    programs: Iterable[IRProgram],
) -> Tuple[List[List[str]], List[Tuple[str, str]]]:
    """Extract (block statement sequences, dataflow statement pairs)."""
    sequences: List[List[str]] = []
    pairs: List[Tuple[str, str]] = []
    for program in programs:
        for fn in program.functions.values():
            for block in fn.blocks:
                texts = [statement_text(i) for i in block.instrs]
                sequences.append(texts)
                reg_def: Dict[str, str] = {}
                for instr, text in zip(block.instrs, texts):
                    for op in instr.operands:
                        if isinstance(op, Reg) and op.name in reg_def:
                            pairs.append((reg_def[op.name], text))
                    if instr.result is not None:
                        reg_def[instr.result.name] = text
    return sequences, pairs


def _ordered_scatter_add(
    weights: np.ndarray, indices: np.ndarray, updates: np.ndarray
) -> None:
    """Add ``updates[i]`` into row ``indices[i]`` of ``weights`` for every ``i``.

    Bit for bit what numpy's unbuffered in-place add (``ufunc.at``) does:
    each row's updates are added into its current value one at a time, in
    the order they occur.  A stable sort of ``indices`` keeps that order
    within each row.  Each distinct row's current value is stacked ahead of
    its updates, and one ``np.add.accumulate`` down axis 0 adds them in
    exactly that order.  A reduce, ``reduceat`` or ``bincount`` would sum
    the updates first and round differently.
    """
    if indices.size == 0:
        return
    order = np.argsort(indices, kind="stable")
    sorted_rows = indices[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    rows = sorted_rows[starts]
    # group g is stacked[heads[g]:heads[g + 1]]: its row, then its updates
    stacked = np.take(updates, np.insert(order, starts, 0), axis=0)
    heads = starts + np.arange(rows.size)
    stacked[heads] = weights[rows]
    bounds = np.append(heads, len(stacked)).tolist()
    for g, row in enumerate(rows.tolist()):
        weights[row] = np.add.accumulate(
            stacked[bounds[g] : bounds[g + 1]], axis=0
        )[-1]


class Inst2Vec:
    """Trainable skip-gram embedding table over normalized IR statements."""

    def __init__(self, dim: int = 200) -> None:
        if dim <= 0:
            raise EmbeddingError("embedding dimension must be positive")
        self.dim = dim
        self.vocab: Optional[Vocabulary] = None
        self.w_in: Optional[np.ndarray] = None
        self.w_out: Optional[np.ndarray] = None

    # -- training --------------------------------------------------------------

    def train(
        self,
        programs: Iterable[IRProgram],
        window: int = 2,
        epochs: int = 3,
        negatives: int = 5,
        lr: float = 0.05,
        batch_size: int = 512,
        min_count: int = 1,
        rng: RngLike = 0,
    ) -> "Inst2Vec":
        """Train the embedding space on a program corpus."""
        rng = ensure_rng(rng)
        sequences, flow_pairs = build_statement_corpus(programs)
        self.vocab = build_vocabulary(sequences, min_count=min_count)
        vocab_size = len(self.vocab)
        self.w_in = rng.normal(0.0, 0.5 / self.dim, size=(vocab_size, self.dim))
        self.w_out = np.zeros((vocab_size, self.dim))

        centers, contexts = self._training_pairs(sequences, flow_pairs, window)
        if centers.size == 0:
            raise EmbeddingError("empty training corpus for inst2vec")

        # unigram^0.75 negative-sampling table (word2vec convention)
        counts = np.bincount(contexts, minlength=vocab_size).astype(np.float64)
        counts[0] = max(counts[0], 1.0)
        probs = counts**0.75
        probs /= probs.sum()

        n = centers.size
        for epoch in range(epochs):
            # linear lr decay, standard word2vec schedule
            epoch_lr = lr * (1.0 - epoch / max(1, epochs)) + lr * 0.1
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                self._sgd_step(
                    centers[batch], contexts[batch], negatives, epoch_lr,
                    probs, rng,
                )
        # L2-normalize rows for downstream use: node features feed tanh GCNs
        # and must stay O(1) regardless of training length
        norms = np.linalg.norm(self.w_in, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self.w_in = self.w_in / norms
        return self

    def _training_pairs(
        self,
        sequences: List[List[str]],
        flow_pairs: List[Tuple[str, str]],
        window: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        assert self.vocab is not None
        centers: List[int] = []
        contexts: List[int] = []
        for sequence in sequences:
            ids = self.vocab.encode(sequence)
            for pos, center in enumerate(ids):
                lo = max(0, pos - window)
                hi = min(len(ids), pos + window + 1)
                for other in range(lo, hi):
                    if other != pos:
                        centers.append(center)
                        contexts.append(ids[other])
        for src, dst in flow_pairs:
            a = self.vocab.id_of(src)
            b = self.vocab.id_of(dst)
            centers.extend((a, b))
            contexts.extend((b, a))
        return (
            np.asarray(centers, dtype=np.int64),
            np.asarray(contexts, dtype=np.int64),
        )

    def _sgd_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        negatives: int,
        lr: float,
        noise_probs: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        w_in, w_out = self.w_in, self.w_out
        batch = centers.size
        neg = rng.choice(noise_probs.size, size=(batch, negatives), p=noise_probs)
        # every w_out row the step reads and writes: the contexts, then the
        # negatives (the order the two w_out updates are applied in)
        out_rows = np.concatenate((contexts, neg.reshape(-1)))

        v = w_in[centers]                      # (B, d)
        u = w_out[out_rows]                    # (B + B*k, d)
        u_pos = u[:batch]                      # (B, d)
        u_neg = u[batch:].reshape(batch, negatives, self.dim)  # (B, k, d)

        pos_dot = np.clip(np.einsum("bd,bd->b", v, u_pos), -30.0, 30.0)
        neg_dot = np.clip(np.einsum("bd,bkd->bk", v, u_neg), -30.0, 30.0)
        pos_score = 1.0 / (1.0 + np.exp(-pos_dot))
        neg_score = 1.0 / (1.0 + np.exp(-neg_dot))

        g_pos = (pos_score - 1.0)[:, None]          # d/d(u_pos . v)
        g_neg = neg_score[:, :, None]               # d/d(u_neg . v)

        grad_v = g_pos * u_pos + np.einsum("bk,bkd->bd", neg_score, u_neg)
        # once grad_v has read them, u's rows become the w_out gradients
        np.multiply(g_pos, v, out=u_pos)
        np.multiply(g_neg, v[:, None, :], out=u_neg)

        # clip per-pair updates: duplicated tokens in a batch otherwise
        # accumulate unbounded updates and diverge
        clip = 1.0
        for grad in (grad_v, u):
            np.clip(grad, -clip, clip, out=grad)
            grad *= -lr
        _ordered_scatter_add(w_in, centers, grad_v)
        _ordered_scatter_add(w_out, out_rows, u)

    # -- lookup ------------------------------------------------------------------

    def _require_trained(self) -> None:
        if self.vocab is None or self.w_in is None:
            raise EmbeddingError("inst2vec model is not trained")

    def embed(self, statement: str) -> np.ndarray:
        """Embedding vector of one normalized statement."""
        self._require_trained()
        return self.w_in[self.vocab.id_of(statement)]

    def embed_sequence(self, statements: Sequence[str]) -> np.ndarray:
        """Mean embedding of a statement sequence (a PEG node's content)."""
        self._require_trained()
        if not statements:
            return np.zeros(self.dim)
        ids = self.vocab.encode(statements)
        return self.w_in[ids].mean(axis=0)

    def embed_matrix(self, statements: Sequence[str]) -> np.ndarray:
        """(len, dim) matrix of per-statement embeddings (NCC input)."""
        self._require_trained()
        if not statements:
            return np.zeros((1, self.dim))
        ids = self.vocab.encode(statements)
        return self.w_in[ids]

    @property
    def vocab_size(self) -> int:
        self._require_trained()
        return len(self.vocab)
