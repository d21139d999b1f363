"""Autograd engine: finite-difference gradient checks, including
property-based checks over random shapes.

Every op's VJP is defined once, in :mod:`repro.nn.primitives`; eager
autograd and the tape backward both call it, so these finite-difference
checks are the independent oracle for every gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.nn.layers import Parameter
from repro.nn.primitives import PRIMITIVES
from repro.nn.tensor import Tensor, concat, no_grad, stack

EPS = 1e-6
TOL = 1e-6


def numeric_grad(fn, x: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for pos in range(flat.size):
        original = flat[pos]
        flat[pos] = original + EPS
        up = fn(x)
        flat[pos] = original - EPS
        down = fn(x)
        flat[pos] = original
        grad_flat[pos] = (up - down) / (2 * EPS)
    return grad


def check_grad(build_loss, x: np.ndarray, tol=TOL):
    param = Parameter(x.copy())
    loss = build_loss(param)
    loss.backward()
    analytic = param.grad

    def evaluate(values: np.ndarray) -> float:
        return build_loss(Tensor(values)).item()

    numeric = numeric_grad(evaluate, x.copy())
    np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-4)


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(0).normal(size=(4, 3))


class TestElementwiseGrads:
    def test_add_mul(self, x):
        check_grad(lambda t: ((t + 2.0) * (t * 0.5)).sum(), x)

    def test_sub_neg(self, x):
        check_grad(lambda t: ((-t) - (t * 3.0)).sum(), x)

    def test_div(self, x):
        check_grad(lambda t: (t / (t.sigmoid() + 2.0)).sum(), x)

    def test_pow(self, x):
        check_grad(lambda t: ((t * t) ** 1.5 + Tensor(1e-3)).sum(), np.abs(x) + 0.5)

    def test_exp_log(self, x):
        check_grad(lambda t: (t.exp().log()).sum(), x)

    def test_tanh(self, x):
        check_grad(lambda t: t.tanh().sum(), x)

    def test_sigmoid(self, x):
        check_grad(lambda t: t.sigmoid().sum(), x)

    def test_relu(self, x):
        check_grad(lambda t: t.relu().sum(), x + 0.05)


class TestMatmulGrads:
    def test_matrix_matrix(self, x):
        w = Tensor(np.random.default_rng(1).normal(size=(3, 5)))
        check_grad(lambda t: ((t @ w).tanh()).sum(), x)

    def test_matrix_vector(self, x):
        v = Tensor(np.random.default_rng(2).normal(size=3))
        check_grad(lambda t: (t @ v).sum(), x)

    def test_weight_side_gradient(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda w: ((a @ w) ** 2.0).sum(), rng.normal(size=(3, 2)))


class TestReductionGrads:
    def test_sum_axis(self, x):
        check_grad(lambda t: (t.sum(axis=0) ** 2.0).sum(), x)

    def test_mean(self, x):
        check_grad(lambda t: t.mean(axis=1).sum(), x)

    def test_max(self, x):
        # perturb to avoid ties, where max grads are subgradients
        data = x + np.arange(x.size).reshape(x.shape) * 1e-3
        check_grad(lambda t: t.max(axis=1).sum(), data)


class TestShapeGrads:
    def test_reshape(self, x):
        check_grad(lambda t: (t.reshape(2, 6) ** 2.0).sum(), x)

    def test_transpose(self, x):
        w = Tensor(np.random.default_rng(4).normal(size=(4, 2)))
        check_grad(lambda t: (t.T @ w).sum(), x)

    def test_getitem_slice(self, x):
        check_grad(lambda t: (t[1:3] ** 2.0).sum(), x)

    def test_getitem_fancy(self, x):
        rows = np.array([0, 2, 2])
        check_grad(lambda t: t.take_rows(rows).sum(), x)

    def test_concat(self, x):
        check_grad(lambda t: concat([t, t * 2.0], axis=1).sum(), x)

    def test_stack(self, x):
        check_grad(lambda t: (stack([t, t.tanh()], axis=0) ** 2.0).sum(), x)


class TestEngineSemantics:
    def test_backward_requires_scalar(self, x):
        param = Parameter(x)
        with pytest.raises(ModelError):
            (param * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self, x):
        with pytest.raises(ModelError):
            Tensor(x).backward()

    def test_no_grad_disables_tape(self, x):
        param = Parameter(x)
        with no_grad():
            out = (param * 2.0).sum()
        assert not out.requires_grad

    def test_grad_accumulates_across_uses(self):
        param = Parameter(np.ones(3))
        loss = (param * 2.0).sum() + (param * 3.0).sum()
        loss.backward()
        np.testing.assert_allclose(param.grad, np.full(3, 5.0))

    def test_zero_grad(self):
        param = Parameter(np.ones(3))
        (param.sum()).backward()
        param.zero_grad()
        assert param.grad is None

    def test_diamond_graph_gradient(self):
        param = Parameter(np.array([2.0]))
        a = param * 3.0
        loss = (a * a).sum()
        loss.backward()
        np.testing.assert_allclose(param.grad, [36.0])  # d(9x^2)/dx = 18x


class TestOneDefinition:
    """A planted fault in one registered VJP reaches eager autograd, and
    the finite-difference oracle rejects it."""

    @pytest.fixture()
    def scaled_tanh_vjp(self, monkeypatch):
        prim = PRIMITIVES["tanh"]
        original = prim.vjp

        def scaled(*args):
            return tuple(None if p is None else 1.5 * p for p in original(*args))

        monkeypatch.setattr(prim, "vjp", scaled)

    def test_eager_backward_uses_the_registered_vjp(self, x, scaled_tanh_vjp):
        param = Parameter(x.copy())
        param.tanh().sum().backward()
        np.testing.assert_array_equal(
            param.grad, 1.5 * (1.0 - np.tanh(x) ** 2)
        )

    def test_gradcheck_rejects_the_perturbed_vjp(self, x, scaled_tanh_vjp):
        with pytest.raises(AssertionError):
            check_grad(lambda t: t.tanh().sum(), x)


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 100),
)
@settings(max_examples=20, deadline=None)
def test_mlp_gradcheck_random_shapes(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    w = Tensor(rng.normal(size=(cols, 3)))
    check_grad(lambda t: ((t @ w).tanh().sigmoid()).sum(), x, tol=1e-5)


@given(seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_unbroadcast_row_vector(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3,))
    a = Tensor(rng.normal(size=(4, 3)))
    check_grad(lambda t: ((a + t) ** 2.0).sum(), x, tol=1e-5)
