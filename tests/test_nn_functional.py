"""Gradient and property checks for the neural-network ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .conftest import check_gradient


def test_relu_values_and_grad(rng):
    values = rng.standard_normal(20)
    values[np.abs(values) < 0.1] = 0.5
    out = F.relu(Tensor(values.astype(np.float32)))
    np.testing.assert_allclose(out.data, np.maximum(values, 0), rtol=1e-6)
    check_gradient(lambda t: F.relu(t).sum(), values)


def test_gelu_matches_reference_shape(rng):
    x = Tensor(np.array([-2.0, 0.0, 2.0], dtype=np.float32))
    out = F.gelu(x).data
    assert out[1] == pytest.approx(0.0)
    assert out[2] == pytest.approx(1.954, abs=1e-2)
    assert out[0] == pytest.approx(-0.0454, abs=1e-2)


def test_gelu_grad(rng):
    check_gradient(lambda t: F.gelu(t).sum(), rng.standard_normal(10))


def test_gelu_within_1e6_of_float64_reference(rng):
    """The cube is two multiplies, not a libm ``powf`` per element; the
    result stays as close to the float64 formula as it was."""
    values = np.concatenate([np.linspace(-4.0, 4.0, 20001),
                             rng.standard_normal(20000)]).astype(np.float32)
    wide = values.astype(np.float64)
    reference = 0.5 * wide * (1.0 + np.tanh(
        np.sqrt(2.0 / np.pi) * (wide + 0.044715 * wide ** 3)))
    out = F.gelu(Tensor(values)).data
    assert out.dtype == np.float32
    assert np.abs(out - reference).max() < 1e-6


def test_sigmoid_values_and_grad(rng):
    out = F.sigmoid(Tensor(np.zeros(3, dtype=np.float32)))
    np.testing.assert_allclose(out.data, 0.5)
    check_gradient(lambda t: F.sigmoid(t).sum(), rng.standard_normal(8))


def test_log_softmax_consistent_with_softmax(rng):
    x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
    exp = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(F.log_softmax(x).data,
                               np.log(exp / exp.sum(axis=-1, keepdims=True)),
                               rtol=1e-4, atol=1e-5)


def test_log_softmax_grad(rng):
    weights = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    check_gradient(lambda t: (F.log_softmax(t) * weights).sum(),
                   rng.standard_normal((2, 4)))


def test_layer_norm_output_statistics(rng):
    dim = 16
    x = Tensor(rng.standard_normal((5, dim)).astype(np.float32))
    weight = Tensor(np.ones(dim, dtype=np.float32))
    bias = Tensor(np.zeros(dim, dtype=np.float32))
    out = F.layer_norm(x, weight, bias).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-5)
    np.testing.assert_allclose(out.std(axis=-1), np.ones(5), atol=1e-2)


def test_layer_norm_grads_all_inputs(rng):
    dim = 6
    w = rng.standard_normal(dim).astype(np.float32)
    b = rng.standard_normal(dim).astype(np.float32)
    check_gradient(
        lambda t: (F.layer_norm(t, Tensor(w), Tensor(b)) ** 2).sum(),
        rng.standard_normal((3, dim)))
    x_data = rng.standard_normal((3, dim)).astype(np.float32)
    check_gradient(
        lambda t: (F.layer_norm(Tensor(x_data), t, Tensor(b)) ** 2).sum(),
        w)
    check_gradient(
        lambda t: (F.layer_norm(Tensor(x_data), Tensor(w), t) ** 2).sum(),
        b)


def test_embedding_lookup_and_scatter_grad(rng):
    table = Tensor(rng.standard_normal((10, 4)).astype(np.float32),
                   requires_grad=True)
    indices = np.array([[1, 1], [3, 9]])
    out = F.embedding(indices, table)
    assert out.shape == (2, 2, 4)
    out.sum().backward()
    # Row 1 was used twice -> gradient 2, rows 3 and 9 once, others zero.
    assert table.grad[1].sum() == pytest.approx(8.0)
    assert table.grad[3].sum() == pytest.approx(4.0)
    assert table.grad[0].sum() == pytest.approx(0.0)


def test_dropout_identity_when_eval_or_zero(rng):
    x = Tensor(rng.standard_normal(100).astype(np.float32))
    assert F.dropout(x, 0.5, rng, training=False) is x
    assert F.dropout(x, 0.0, rng, training=True) is x


def test_dropout_preserves_expectation(rng):
    x = Tensor(np.ones(20_000, dtype=np.float32), requires_grad=True)
    out = F.dropout(x, 0.25, rng, training=True)
    assert out.data.mean() == pytest.approx(1.0, abs=0.02)
    zeros = (out.data == 0).mean()
    assert zeros == pytest.approx(0.25, abs=0.02)


def test_dropout_rejects_bad_rate(rng):
    with pytest.raises(ValueError):
        F.dropout(Tensor([1.0]), 1.0, rng)


def test_causal_mask_blocks_future():
    mask = F.causal_mask(4)
    assert mask[0, 3] < -1e8
    assert mask[3, 0] == 0.0
    assert mask[2, 2] == 0.0


def test_cross_entropy_matches_manual(rng):
    logits = rng.standard_normal((5, 7)).astype(np.float32)
    targets = rng.integers(0, 7, size=5)
    loss = F.cross_entropy(Tensor(logits), targets)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -log_probs[np.arange(5), targets].mean()
    assert loss.item() == pytest.approx(expected, rel=1e-5)


def test_cross_entropy_grad(rng):
    targets = rng.integers(0, 4, size=6)
    check_gradient(lambda t: F.cross_entropy(t, targets),
                   rng.standard_normal((6, 4)))


def test_cross_entropy_ignore_index(rng):
    logits = rng.standard_normal((4, 3)).astype(np.float32)
    targets = np.array([0, 1, -1, -1])
    loss = F.cross_entropy(Tensor(logits), targets, ignore_index=-1)
    reference = F.cross_entropy(Tensor(logits[:2]), targets[:2])
    assert loss.item() == pytest.approx(reference.item(), rel=1e-5)


def test_cross_entropy_perfect_prediction_low_loss():
    logits = np.full((2, 3), -20.0, dtype=np.float32)
    logits[0, 1] = 20.0
    logits[1, 2] = 20.0
    loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
    assert loss.item() < 1e-4


def test_accuracy():
    logits = Tensor(np.array([[0.1, 0.9], [0.8, 0.2]], dtype=np.float32))
    assert F.accuracy(logits, np.array([1, 0])) == 1.0
    assert F.accuracy(logits, np.array([0, 0])) == 0.5


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 4), vocab=st.integers(2, 8),
       seed=st.integers(0, 500))
def test_cross_entropy_nonnegative_and_bounded(rows, vocab, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((rows, vocab)).astype(np.float32))
    targets = rng.integers(0, vocab, size=rows)
    loss = F.cross_entropy(logits, targets).item()
    assert loss >= 0.0
    # Uniform-logits loss is log(vocab); random logits stay in a sane band.
    assert loss < np.log(vocab) + 10.0
