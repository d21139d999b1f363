"""LSTM layer: shapes, gradient checks, and a numpy oracle of the gate
equations on ragged lengths."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def lstm():
    return LSTM(4, 6, rng=0)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def numpy_lstm(lstm, seq):
    """Final hidden state of one ``(time, features)`` sequence, written
    from the gate equations: i, f, g, o = split(x W_x + h W_h + b),
    c = f c + i g, h = o tanh(c), from zero state."""
    hidden = lstm.hidden_size
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for x in seq:
        gates = x @ lstm.w_x.data + h @ lstm.w_h.data + lstm.bias.data
        i, f, g, o = (gates[k * hidden : (k + 1) * hidden] for k in range(4))
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
    return h


class TestShapes:
    def test_sequence_output(self, lstm):
        seq, h = lstm.forward_batch(Tensor(np.ones((1, 7, 4))))
        assert seq.shape == (7, 1, 6)
        assert h.shape == (1, 6)

    def test_bad_input_rejected(self, lstm):
        with pytest.raises(ModelError):
            lstm.forward_batch(Tensor(np.ones((1, 7, 3))))
        with pytest.raises(ModelError):
            lstm.forward_batch(Tensor(np.ones((7, 4))))

    def test_batched_shapes(self, lstm):
        seq, h_last = lstm.forward_batch(Tensor(np.ones((3, 5, 4))))
        assert seq.shape == (5, 3, 6)
        assert h_last.shape == (3, 6)

    def test_bad_lengths_rejected(self, lstm):
        with pytest.raises(ModelError):
            lstm.forward_batch(
                Tensor(np.ones((2, 5, 4))), lengths=np.array([6, 1])
            )


class TestSemantics:
    def test_batched_matches_single(self, lstm):
        """Ragged lengths against the numpy oracle: a padded step must
        leave a shorter sequence's state untouched."""
        rng = np.random.default_rng(2)
        lengths = np.array([5, 3, 1, 4])
        padded = np.zeros((4, 5, 4))
        for pos, length in enumerate(lengths):
            padded[pos, :length] = rng.normal(size=(length, 4))
        _, h_batch = lstm.forward_batch(Tensor(padded), lengths)
        for pos, length in enumerate(lengths):
            np.testing.assert_allclose(
                h_batch.data[pos], numpy_lstm(lstm, padded[pos, :length]),
                atol=1e-12,
            )

    def test_gradient_check_single(self):
        lstm = LSTM(3, 4, rng=5)
        rng = np.random.default_rng(6)
        data = rng.normal(size=(1, 4, 3))

        def loss_value():
            _, h = lstm.forward_batch(Tensor(data))
            return (h ** 2.0).sum()

        loss_value().backward()
        analytic = lstm.w_x.grad[0, 0]
        eps = 1e-6
        original = lstm.w_x.data[0, 0]
        lstm.w_x.data[0, 0] = original + eps
        up = loss_value().item()
        lstm.w_x.data[0, 0] = original - eps
        down = loss_value().item()
        lstm.w_x.data[0, 0] = original
        assert abs(analytic - (up - down) / (2 * eps)) < 1e-6

    def test_gradient_check_batched(self):
        lstm = LSTM(3, 4, rng=7)
        rng = np.random.default_rng(8)
        data = rng.normal(size=(2, 4, 3))
        lengths = np.array([4, 2])

        def loss_value():
            _, h = lstm.forward_batch(Tensor(data), lengths)
            return (h ** 2.0).sum()

        loss_value().backward()
        analytic = lstm.w_h.grad[1, 2]
        eps = 1e-6
        original = lstm.w_h.data[1, 2]
        lstm.w_h.data[1, 2] = original + eps
        up = loss_value().item()
        lstm.w_h.data[1, 2] = original - eps
        down = loss_value().item()
        lstm.w_h.data[1, 2] = original
        assert abs(analytic - (up - down) / (2 * eps)) < 1e-6

    def test_forget_bias_initialized_to_one(self, lstm):
        hidden = lstm.hidden_size
        np.testing.assert_allclose(
            lstm.bias.data[hidden : 2 * hidden], 1.0
        )
