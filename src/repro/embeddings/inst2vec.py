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


# the lockstep stops where no more than this many row groups still run;
# their tails cost less as one accumulate each than as one vector add per
# position
_TAIL_GROUPS = 4


def _ordered_scatter_add(
    weights: np.ndarray, indices: np.ndarray, updates: np.ndarray
) -> None:
    """Add ``updates[i]`` into row ``indices[i]`` of ``weights`` for every ``i``.

    Bit for bit what numpy's unbuffered in-place add (``ufunc.at``) does:
    each row's updates are added into its live value one at a time, in the
    order they occur, with the live value as the left operand.  A stable
    sort of ``indices`` keeps that order within each row's group, and the
    groups are then taken longest first.  Position ``j`` of every group
    longer than ``j`` is added in one vector add, from one position-major
    block gathered up front, until at most ``_TAIL_GROUPS`` groups are
    left; each of those finishes with one ``np.add.accumulate`` down axis 0
    over its live value stacked ahead of its remaining updates.  A reduce,
    ``reduceat`` or ``bincount`` would sum the updates first and round
    differently.
    """
    if indices.size == 0:
        return
    order = np.argsort(indices, kind="stable")
    sorted_rows = indices[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    counts = np.diff(np.append(starts, indices.size))
    longest = np.argsort(-counts, kind="stable")
    starts, counts = starts[longest], counts[longest]
    rows = sorted_rows[starts]
    live = weights[rows]
    span = int(counts[_TAIL_GROUPS]) if rows.size > _TAIL_GROUPS else 0
    if span:
        # running[j]: the groups longer than j, a prefix of the groups
        running = np.searchsorted(-counts, -np.arange(span), side="left")
        position = np.repeat(np.arange(span), running)
        group = np.arange(position.size) - np.repeat(
            np.cumsum(running) - running, running
        )
        block = np.take(updates, order[starts[group] + position], axis=0)
        end = 0
        for n in running.tolist():
            head = live[:n]
            np.add(head, block[end : end + n], out=head)
            end += n
    for g in range(min(_TAIL_GROUPS, rows.size)):
        if counts[g] > span:
            tail = order[starts[g] + span : starts[g] + counts[g]]
            stacked = np.empty(
                (tail.size + 1, updates.shape[1]), updates.dtype
            )
            stacked[0] = live[g]
            np.take(updates, tail, axis=0, out=stacked[1:], mode="clip")
            live[g] = np.add.accumulate(stacked, axis=0)[-1]
    weights[rows] = live


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
        try:
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
        finally:
            # the trained model is pickled to every dataset worker and held
            # for the whole assembly: it carries no scratch
            self.__dict__.pop("_scratch", None)
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

        v, u = self._scratch_pair(batch, out_rows.size)
        # mode="clip" (the rows are in range) lets take write straight into
        # the scratch; the default "raise" gathers into a temporary first
        np.take(w_in, centers, axis=0, out=v, mode="clip")      # (B, d)
        np.take(w_out, out_rows, axis=0, out=u, mode="clip")    # (B + B*k, d)
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

    def _scratch_pair(
        self, batch: int, n_out: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The step's gather targets, reused across the steps of one
        ``train`` call: fresh multi-megabyte arrays are page-faulted in
        again on every step.  Reallocated when the batch shape changes
        (an epoch's short last batch)."""
        shapes = ((batch, self.dim), (n_out, self.dim))
        pair = getattr(self, "_scratch", None)
        if pair is None or (pair[0].shape, pair[1].shape) != shapes:
            pair = self._scratch = (np.empty(shapes[0]), np.empty(shapes[1]))
        return pair

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
