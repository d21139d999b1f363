"""LSTM layer for the NCC baseline (two stacked LSTMs of 200 units) and
the Fig. 8 single-view heads.

Straightforward unrolled LSTM over a padded (batch, time, features) input:
the input projection is hoisted into one matmul, then one fused gate
projection per step is split into input/forget/cell/output gates.  Returns
the full hidden sequence so layers stack naturally, and each sequence's
final hidden state.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.init import glorot_uniform, orthogonal, zeros_init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor, stack
from repro.utils.rng import RngLike, ensure_rng


class LSTM(Module):
    """Single LSTM layer; stack instances for multi-layer models."""

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(glorot_uniform((input_size, 4 * hidden_size), rng))
        self.w_h = Parameter(
            np.concatenate(
                [orthogonal((hidden_size, hidden_size), rng) for _ in range(4)],
                axis=1,
            )
        )
        bias = zeros_init((4 * hidden_size,))
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward_batch(
        self, inputs: Tensor, lengths: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        """Batched run over a (batch, time, input_size) padded tensor.

        Returns (hidden_sequence (time, batch, hidden), h_last (batch,
        hidden)) where ``h_last`` is each sequence's hidden state at its own
        final valid step (per ``lengths``; full length when None).  Padded
        steps are frozen with a mask so they do not perturb the state.
        """
        inputs = as_tensor(inputs)
        if inputs.ndim != 3 or inputs.shape[2] != self.input_size:
            raise ModelError(
                f"forward_batch expects (batch, time, {self.input_size}), "
                f"got {inputs.shape}"
            )
        batch, steps, _ = inputs.shape
        hidden = self.hidden_size
        if lengths is None:
            lengths = np.full(batch, steps, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > steps:
            raise ModelError("invalid lengths for forward_batch")

        flat = inputs.reshape(batch * steps, self.input_size)
        x_proj = (flat @ self.w_x).reshape(batch, steps, 4 * hidden)

        h = Tensor(np.zeros((batch, hidden)))
        c = Tensor(np.zeros((batch, hidden)))
        states: List[Tensor] = []
        for t in range(steps):
            active = (lengths > t).astype(np.float64)[:, None]
            gates = x_proj[:, t] + h @ self.w_h + self.bias
            i_gate = gates[:, 0:hidden].sigmoid()
            f_gate = gates[:, hidden : 2 * hidden].sigmoid()
            g_gate = gates[:, 2 * hidden : 3 * hidden].tanh()
            o_gate = gates[:, 3 * hidden : 4 * hidden].sigmoid()
            c_new = f_gate * c + i_gate * g_gate
            h_new = o_gate * c_new.tanh()
            if active.min() < 1.0:
                mask = Tensor(active)
                keep = Tensor(1.0 - active)
                c = mask * c_new + keep * c
                h = mask * h_new + keep * h
            else:
                c, h = c_new, h_new
            states.append(h)
        return stack(states, axis=0), h
