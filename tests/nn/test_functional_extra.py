"""Loss functions and dropout masks — edge cases."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.functional import dropout_mask, softmax_cross_entropy_batch
from repro.nn.layers import Parameter
from repro.nn.tensor import Tensor


def numpy_nll(logits, labels, temperature=1.0):
    """Per-row negative log-likelihood via log-sum-exp."""
    z = logits / temperature
    top = z.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(z - top).sum(axis=1))
    return lse - z[np.arange(len(labels)), labels]


class TestBatchCrossEntropy:
    def test_matches_mean_of_singles(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        nll = numpy_nll(logits, labels, temperature=0.5)
        mean = softmax_cross_entropy_batch(Tensor(logits), labels, 0.5)
        total = softmax_cross_entropy_batch(
            Tensor(logits), labels, 0.5, reduction="sum"
        )
        assert mean.item() == pytest.approx(nll.mean(), rel=1e-10)
        assert total.item() == pytest.approx(nll.sum(), rel=1e-10)

    def test_gradient_flows(self):
        param = Parameter(np.zeros((4, 2)))
        loss = softmax_cross_entropy_batch(param, [0, 1, 0, 1])
        loss.backward()
        assert param.grad is not None
        # balanced labels at uniform logits: gradient rows sum to ~0
        np.testing.assert_allclose(param.grad.sum(axis=0), 0.0, atol=1e-12)

    def test_rank_validation(self):
        with pytest.raises(ModelError):
            softmax_cross_entropy_batch(Tensor(np.zeros(3)), [0])

    def test_label_validation(self):
        with pytest.raises(ModelError):
            softmax_cross_entropy_batch(Tensor(np.zeros((2, 2))), [0, 5])

    def test_temperature_scales_confidence_penalty(self):
        logits = Tensor(np.array([[2.0, 0.0]]))
        sharp = softmax_cross_entropy_batch(logits, [1], temperature=0.5)
        soft = softmax_cross_entropy_batch(logits, [1], temperature=2.0)
        assert sharp.item() > soft.item()  # sharper softmax punishes misses


class TestDropoutMask:
    def test_zero_rate_none(self):
        assert dropout_mask((3, 3), 0.0) is None

    def test_rate_one_rejected(self):
        with pytest.raises(ModelError):
            dropout_mask((3, 3), 1.0)

    def test_inverted_scaling(self):
        mask = dropout_mask((1000,), 0.5, rng=0)
        kept = mask[mask > 0]
        np.testing.assert_allclose(kept, 2.0)  # 1 / keep_prob

    def test_expected_keep_fraction(self):
        mask = dropout_mask((10000,), 0.3, rng=1)
        keep_fraction = (mask > 0).mean()
        assert 0.65 < keep_fraction < 0.75
