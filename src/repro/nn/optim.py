"""Optimizers: SGD (with momentum) and Adam.

Updates are in-place on parameter ``data`` buffers (no reallocations in the
training loop, per the HPC guide's in-place-operation idiom).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Parameter


class Optimizer:
    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ModelError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ModelError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum and gradient clipping."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        clip: Optional[float] = None,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.clip = clip
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for pos, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.clip is not None:
                grad = np.clip(grad, -self.clip, self.clip)
            if self.momentum > 0.0:
                if self._velocity[pos] is None:
                    self._velocity[pos] = np.zeros_like(param.data)
                vel = self._velocity[pos]
                vel *= self.momentum
                vel -= self.lr * grad
                param.data += vel
            else:
                param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction and optional gradient clipping.

    The moments of all parameters live in two flat buffers.  ``step`` takes
    consecutive parameters that have a gradient in groups no larger than
    the largest parameter, copies a group's gradients into a flat scratch
    buffer of that size and evaluates the textbook update over the whole
    group with ``out=`` ufuncs, in the textbook order.  Every element sees
    exactly the operations of a per-parameter update, and a step allocates
    nothing.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip: Optional[float] = None,
    ) -> None:
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip = clip
        sizes = [p.data.size for p in self.params]
        self._offsets = [0] + np.cumsum(sizes).tolist()
        self._m = np.zeros(self._offsets[-1])
        self._v = np.zeros(self._offsets[-1])
        self._grad = np.empty(max(sizes))   # scratch: grads, then the update
        self._tmp = np.empty(max(sizes))    # scratch: products, then sqrt(v̂)+eps
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        offsets, room = self._offsets, self._grad.size
        first = None    # first parameter of the open group
        for pos, param in enumerate(self.params):
            if first is not None and (
                param.grad is None or offsets[pos + 1] - offsets[first] > room
            ):
                self._update(first, pos, bias1, bias2)
                first = None
            if first is None and param.grad is not None:
                first = pos
        if first is not None:
            self._update(first, len(self.params), bias1, bias2)

    def _update(self, first: int, stop: int, bias1: float, bias2: float) -> None:
        """One Adam update of the parameters ``first .. stop - 1``."""
        b1, b2 = self.beta1, self.beta2
        params = self.params[first:stop]
        bounds = self._offsets[first : stop + 1]
        base, size = bounds[0], bounds[-1] - bounds[0]
        grad, tmp = self._grad[:size], self._tmp[:size]
        m, v = self._m[base : base + size], self._v[base : base + size]
        np.concatenate([p.grad.ravel() for p in params], out=grad)
        if self.clip is not None:
            np.clip(grad, -self.clip, self.clip, out=grad)
        m *= b1
        m += np.multiply(1.0 - b1, grad, out=tmp)
        v *= b2
        np.multiply(1.0 - b2, grad, out=tmp)
        v += np.multiply(tmp, grad, out=tmp)
        # tmp <- sqrt(v / bias2) + eps; grad <- (lr * (m / bias1)) / tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bias1, out=grad)
        np.multiply(self.lr, grad, out=grad)
        np.divide(grad, tmp, out=grad)
        for param, start, end in zip(params, bounds, bounds[1:]):
            param.data -= grad[start - base : end - base].reshape(param.data.shape)
