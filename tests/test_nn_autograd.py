"""Unit and property tests for the autograd engine.

The central guarantee this suite enforces: every differentiable op's
analytic gradient matches a central-difference numerical gradient.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concat, no_grad, spmm, tensor

RNG = np.random.default_rng(0)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(op, x: np.ndarray, atol: float = 1e-5):
    """Compare analytic and numerical gradients of ``sum(op(x))``."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()

    def scalar(arr):
        return op(Tensor(arr)).sum().item()

    expected = numerical_grad(scalar, x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda t: t + t * 2.0, RNG.normal(size=(3, 4)))

    def test_sub(self):
        check_gradient(lambda t: (5.0 - t) - t, RNG.normal(size=(3, 4)))

    def test_mul(self):
        check_gradient(lambda t: t * t, RNG.normal(size=(3, 4)))

    def test_div(self):
        x = RNG.normal(size=(3, 4)) + 3.0
        check_gradient(lambda t: 1.0 / t, x)

    def test_pow(self):
        x = np.abs(RNG.normal(size=(3, 4))) + 0.5
        check_gradient(lambda t: t ** 3, x)

    def test_neg(self):
        check_gradient(lambda t: -t, RNG.normal(size=(2, 2)))

    def test_exp(self):
        check_gradient(lambda t: t.exp(), RNG.normal(size=(3, 3)))

    def test_log(self):
        x = np.abs(RNG.normal(size=(3, 3))) + 0.5
        check_gradient(lambda t: t.log(), x)

    def test_sqrt(self):
        x = np.abs(RNG.normal(size=(3, 3))) + 0.5
        check_gradient(lambda t: t.sqrt(), x)

    def test_abs(self):
        x = RNG.normal(size=(3, 3)) + 0.1  # keep away from the kink
        check_gradient(lambda t: t.abs(), x)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid(), RNG.normal(size=(3, 3)))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh(), RNG.normal(size=(3, 3)))

    def test_relu(self):
        x = RNG.normal(size=(4, 4)) + 0.05
        check_gradient(lambda t: t.relu(), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(4, 4)) + 0.05
        check_gradient(lambda t: t.leaky_relu(0.01), x)

    def test_clip(self):
        x = RNG.normal(size=(4, 4)) * 2
        check_gradient(lambda t: t.clip(-1.0, 1.0), x, atol=1e-4)


class TestReductionsAndShapes:
    def test_sum_all(self):
        check_gradient(lambda t: t.sum() * 1.0, RNG.normal(size=(3, 4)))

    def test_sum_axis0(self):
        check_gradient(lambda t: t.sum(axis=0), RNG.normal(size=(3, 4)))

    def test_sum_axis1_keepdims(self):
        check_gradient(lambda t: t.sum(axis=1, keepdims=True) * t,
                       RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_gradient(lambda t: t.mean(axis=1), RNG.normal(size=(3, 4)))

    def test_trace(self):
        check_gradient(lambda t: t.trace() * 1.0, RNG.normal(size=(4, 4)))

    def test_trace_requires_square(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))).trace()

    def test_transpose(self):
        check_gradient(lambda t: t.T @ Tensor(np.ones((3, 2))),
                       RNG.normal(size=(3, 4)))

    def test_reshape(self):
        check_gradient(lambda t: t.reshape(2, 6) * 2.0, RNG.normal(size=(3, 4)))

    def test_getitem_rows(self):
        check_gradient(lambda t: t[np.array([0, 2])], RNG.normal(size=(4, 3)))

    def test_getitem_repeated_rows_accumulates(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        out = t[np.array([1, 1, 1])].sum()
        out.backward()
        assert t.grad[1].sum() == pytest.approx(6.0)
        assert t.grad[0].sum() == pytest.approx(0.0)

    def test_concat(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        out = concat([a, b], axis=0)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)


class TestMatmulAndSoftmax:
    def test_matmul(self):
        a = RNG.normal(size=(3, 4))
        b = Tensor(RNG.normal(size=(4, 2)))
        check_gradient(lambda t: t @ b, a)

    def test_matmul_right_grad(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))

    def test_softmax(self):
        check_gradient(lambda t: t.softmax(axis=-1) * Tensor(W3),
                       RNG.normal(size=(4, 3)))

    def test_log_softmax(self):
        check_gradient(lambda t: t.log_softmax(axis=-1) * Tensor(W3),
                       RNG.normal(size=(4, 3)))

    def test_softmax_rows_sum_to_one(self):
        p = Tensor(RNG.normal(size=(10, 5))).softmax(axis=-1)
        np.testing.assert_allclose(p.data.sum(axis=1), np.ones(10), atol=1e-12)

    def test_l2_normalize(self):
        check_gradient(lambda t: t.l2_normalize() * Tensor(W3),
                       RNG.normal(size=(4, 3)) + 0.5)

    def test_spmm_gradient(self):
        adj = sp.random(5, 5, density=0.5, random_state=7, format="csr")
        x = RNG.normal(size=(5, 3))
        check_gradient(lambda t: spmm(adj, t), x)

    def test_spmm_rejects_dense(self):
        with pytest.raises(TypeError):
            spmm(np.eye(3), Tensor(np.eye(3)))


W3 = np.arange(12, dtype=float).reshape(4, 3)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t.sum() + t.sum()).backward()
        np.testing.assert_allclose(t.grad, 2 * np.ones(3))

    def test_diamond_graph(self):
        # f(x) = (x*2) + (x*3); grad = 5
        t = Tensor(np.array([1.0]), requires_grad=True)
        ((t * 2.0) + (t * 3.0)).sum().backward()
        assert t.grad[0] == pytest.approx(5.0)

    def test_no_grad_blocks_recording(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad
        assert out._parents == ()

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        (d * 2).sum()
        assert not d.requires_grad

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_tensor_factory(self):
        t = tensor([1, 2, 3], requires_grad=True)
        assert t.requires_grad
        assert t.data.dtype == np.float64

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(tensor([1.0], requires_grad=True))

    def test_broadcast_bias_gradient(self):
        x = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        ((x + b) * 2).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 10.0))

    def test_item_on_scalar(self):
        assert tensor(3.5).item() == pytest.approx(3.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_property_matmul_matches_numpy(n, m):
    a = np.arange(n * m, dtype=float).reshape(n, m) / 10.0
    b = np.ones((m, 2))
    out = Tensor(a) @ Tensor(b)
    np.testing.assert_allclose(out.data, a @ b)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=8))
def test_property_softmax_is_distribution(values):
    p = tensor(np.array(values)[None, :]).softmax(axis=-1).data
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8))
def test_property_sigmoid_bounded(values):
    out = tensor(np.array(values)).sigmoid().data
    assert np.all((out > 0) & (out < 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.float32, np.float64]),
       st.integers(min_value=1, max_value=6),
       st.sampled_from([(), (1,), (3,)]),
       st.data())
def test_property_getitem_scatter_matches_add_at(dtype, n, tail, data):
    # The row-gather backward scatters through a CSR product; it must
    # reproduce np.add.at bit for bit, duplicates, negative indices and
    # −0.0 gradients (which +0.0 absorbs) included.
    index = np.array(data.draw(st.lists(
        st.integers(min_value=-n, max_value=n - 1), max_size=20)),
        dtype=np.int64)
    values = st.one_of(st.just(-0.0), st.just(0.0), st.floats(
        -1e3, 1e3, allow_nan=False, width=32 if dtype == np.float32 else 64))
    g = np.array(data.draw(st.lists(
        values, min_size=index.size * int(np.prod(tail)),
        max_size=index.size * int(np.prod(tail)))),
        dtype=dtype).reshape(index.size, *tail)
    t = Tensor(np.zeros((n, *tail), dtype=dtype), requires_grad=True)
    t[index].backward(g.copy())
    expected = np.zeros((n, *tail), dtype=dtype)
    np.add.at(expected, index, g)
    assert t.grad.dtype == dtype
    assert t.grad.tobytes() == expected.tobytes()
