"""Losses and stateless neural functions."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.primitives import dropout_mask  # noqa: F401  (re-exported)
from repro.nn.tensor import Tensor


def softmax(logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise softmax with an optional temperature (paper uses T=0.5)."""
    scaled = logits * (1.0 / temperature)
    shifted = scaled - Tensor(scaled.data.max(axis=-1, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_batch(
    logits: Tensor, labels, temperature: float = 1.0, reduction: str = "mean"
) -> Tensor:
    """Cross entropy over a (batch, classes) logit matrix; the paper's
    "softmax loss function" with temperature parameter (Section IV-B:
    temperature 0.5).

    ``reduction`` is ``"mean"`` (default) or ``"sum"``.  The packed training
    route uses ``"sum"``: row ``i`` of a packed logit matrix contributes
    exactly sample ``i``'s loss, so the trainer's lr scaling does not depend
    on how a minibatch is packed.
    """
    if logits.ndim != 2:
        raise ModelError("softmax_cross_entropy_batch expects (batch, classes)")
    labels = np.asarray(labels, dtype=np.int64)
    batch, classes = logits.shape
    if labels.shape != (batch,) or labels.min() < 0 or labels.max() >= classes:
        raise ModelError("labels do not match the logit batch")
    probs = softmax(logits, temperature)
    rows = np.arange(batch)
    picked = probs[rows, labels]
    nll = -(picked.log())
    if reduction == "sum":
        return nll.sum()
    if reduction == "mean":
        return nll.mean()
    raise ModelError(f"unknown reduction {reduction!r} (expected mean|sum)")
