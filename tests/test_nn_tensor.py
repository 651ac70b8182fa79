"""Autograd correctness: every Tensor op against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, concatenate, ones, tensor, zeros

from .conftest import check_gradient


def test_tensor_construction_defaults_to_float32():
    assert Tensor([1.0, 2.0]).dtype == np.float32


def test_tensor_from_tensor_shares_data():
    base = Tensor([1.0, 2.0])
    again = Tensor(base)
    assert np.array_equal(again.data, base.data)


def test_item_and_errors():
    assert Tensor([3.5]).item() == pytest.approx(3.5)
    with pytest.raises(ValueError):
        Tensor([1.0, 2.0]).item()


def test_backward_requires_grad():
    with pytest.raises(RuntimeError):
        Tensor([1.0]).backward()


def test_backward_requires_scalar_without_grad_argument():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        (t * 2).backward()


def test_detach_leaves_graph():
    t = Tensor([1.0], requires_grad=True)
    d = t.detach()
    assert not d.requires_grad


# ----------------------------------------------------------------------
# gradient checks per op
# ----------------------------------------------------------------------
def test_grad_add(rng):
    other = rng.standard_normal((3, 4)).astype(np.float32)
    check_gradient(lambda t: (t + Tensor(other)).sum(),
                   rng.standard_normal((3, 4)))


def test_grad_add_broadcast(rng):
    bias = Tensor(rng.standard_normal(4).astype(np.float32))
    check_gradient(lambda t: (t + bias).sum(), rng.standard_normal((3, 4)))


def test_grad_broadcast_accumulates_on_small_operand(rng):
    small = Tensor(rng.standard_normal(4).astype(np.float32),
                   requires_grad=True)
    big = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
    (small + big).sum().backward()
    np.testing.assert_allclose(small.grad, np.full(4, 5.0))


def test_grad_mul(rng):
    other = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    check_gradient(lambda t: (t * other).sum(), rng.standard_normal((2, 3)))


def test_grad_div(rng):
    denom = Tensor(2.0 + rng.random((2, 3)).astype(np.float32))
    check_gradient(lambda t: (t / denom).sum(), rng.standard_normal((2, 3)))


def test_grad_rdiv(rng):
    check_gradient(lambda t: (1.0 / t).sum(),
                   1.0 + rng.random((2, 3)))


def test_grad_neg_and_sub(rng):
    other = Tensor(rng.standard_normal(5).astype(np.float32))
    check_gradient(lambda t: (other - t).sum(), rng.standard_normal(5))


def test_grad_pow(rng):
    check_gradient(lambda t: (t ** 3).sum(), rng.standard_normal(6))


def test_grad_matmul(rng):
    other = Tensor(rng.standard_normal((4, 2)).astype(np.float32))
    check_gradient(lambda t: (t @ other).sum(), rng.standard_normal((3, 4)))


def test_grad_matmul_batched(rng):
    other = Tensor(rng.standard_normal((2, 4, 3)).astype(np.float32))
    check_gradient(lambda t: (t @ other).sum(),
                   rng.standard_normal((2, 3, 4)))


def test_grad_reshape_transpose(rng):
    check_gradient(lambda t: (t.reshape(6) * 2).sum(),
                   rng.standard_normal((2, 3)))
    check_gradient(lambda t: (t.transpose(1, 0) ** 2).sum(),
                   rng.standard_normal((2, 3)))
    # Negative axes: the inverse permutation is taken modulo ndim.
    weights = Tensor(rng.standard_normal((4, 2, 3)).astype(np.float32))
    check_gradient(lambda t: (t.transpose(-1, 0, 1) * weights).sum(),
                   rng.standard_normal((2, 3, 4)))


def test_grad_swapaxes(rng):
    check_gradient(lambda t: (t.swapaxes(0, 1) ** 2).sum(),
                   rng.standard_normal((2, 3)))


def test_grad_getitem(rng):
    check_gradient(lambda t: (t[1] ** 2).sum(), rng.standard_normal((3, 4)))


def test_grad_sum_axis(rng):
    check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(),
                   rng.standard_normal((3, 4)))


def test_grad_mean(rng):
    check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(),
                   rng.standard_normal((3, 4)))


def test_grad_exp_log_sqrt_tanh(rng):
    check_gradient(lambda t: t.exp().sum(), rng.standard_normal(5) * 0.5)
    check_gradient(lambda t: t.log().sum(), 1.0 + rng.random(5))
    check_gradient(lambda t: t.sqrt().sum(), 1.0 + rng.random(5))
    check_gradient(lambda t: t.tanh().sum(), rng.standard_normal(5))


def test_grad_maximum(rng):
    values = rng.standard_normal(20)
    values[np.abs(values) < 0.1] = 0.5  # avoid the kink
    check_gradient(lambda t: t.maximum(0.0).sum(), values)


def test_grad_concatenate(rng):
    other = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    check_gradient(
        lambda t: (concatenate([t, other], axis=0) ** 2).sum(),
        rng.standard_normal((2, 3)))


def test_grad_accumulates_across_uses(rng):
    t = Tensor(rng.standard_normal(4).astype(np.float32),
               requires_grad=True)
    ((t * 2).sum() + (t * 3).sum()).backward()
    np.testing.assert_allclose(t.grad, np.full(4, 5.0))


def test_zero_grad_resets():
    t = Tensor([1.0], requires_grad=True)
    (t * 2).sum().backward()
    assert t.grad is not None
    t.zero_grad()
    assert t.grad is None


def test_astype_roundtrip_grad():
    t = Tensor([1.0, 2.0], requires_grad=True)
    (t.astype(np.float16).astype(np.float32).sum()).backward()
    np.testing.assert_allclose(t.grad, [1.0, 1.0])


def test_constructors():
    assert zeros((2, 2)).data.sum() == 0.0
    assert ones((2, 2)).data.sum() == 4.0
    assert tensor([1, 2]).shape == (2,)


def test_deep_chain_backward_is_iterative():
    # A graph deep enough to overflow a recursive implementation.
    t = Tensor([1.0], requires_grad=True)
    out = t
    for _ in range(3000):
        out = out * 1.0001
    out.sum().backward()
    assert t.grad is not None


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_grad_sum_is_ones_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    t = Tensor(rng.standard_normal((rows, cols)).astype(np.float32),
               requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones((rows, cols)))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 1000))
def test_matmul_grad_matches_transpose_rule(n, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n, n)).astype(np.float32),
               requires_grad=True)
    b_data = rng.standard_normal((n, n)).astype(np.float32)
    (a @ Tensor(b_data)).sum().backward()
    expected = np.ones((n, n), dtype=np.float32) @ b_data.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-4, atol=1e-5)
