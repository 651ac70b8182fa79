"""``F.attention``, ``F.layer_norm`` and ``F.gelu`` against the forms they
replaced.

The old composite ``MultiHeadAttention.forward`` (about a dozen graph
nodes: reshape, transpose, three slices, swapaxes, two matmuls, the
scale, ``masked_fill``, softmax, transpose/reshape) and the old
``masked_fill``, ``softmax``, ``layer_norm`` and ``gelu`` are kept
verbatim below as references; the one edit is ``head_dim``, which the
config no longer carries.  Outputs, every gradient and the dropout RNG
state after the call must match them bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (MultiHeadAttention, TransformerBlock,
                      TransformerConfig, gpt2_config, no_grad)
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.nn.transformer import alibi_bias

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ----------------------------------------------------------------------
# the replaced forms, verbatim
# ----------------------------------------------------------------------
def _reference_masked_fill(x, mask):
    def backward(grad):
        x._accumulate(grad)

    return x._make(x.data + mask, (x,), backward)


def _reference_softmax(x, axis=-1):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    result = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * result).sum(axis=axis, keepdims=True)
        x._accumulate(result * (grad - dot))

    return x._make(result, (x,), backward)


def _reference_attention_forward(self, x):
    batch, seq, dim = x.shape
    heads = self.config.num_heads
    head_dim = self.config.dim // self.config.num_heads

    qkv = self.qkv(x)  # (batch, seq, 3*dim)
    qkv = qkv.reshape(batch, seq, 3, heads, head_dim)
    qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, batch, heads, seq, hd)
    q, k, v = qkv[0], qkv[1], qkv[2]

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(head_dim))
    bias = np.zeros((1, 1, seq, seq), dtype=np.float32)
    if self.config.attention == "causal":
        bias = bias + F.causal_mask(seq)[None, None]
    if self.config.alibi:
        bias = bias + alibi_bias(heads, seq)[None]
    scores = _reference_masked_fill(scores, bias)
    weights = _reference_softmax(scores, axis=-1)
    weights = self.drop(weights)

    context = weights @ v  # (batch, heads, seq, head_dim)
    context = context.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
    return self.proj(context)


def _reference_gelu(x):
    u = x.data
    inner = _SQRT_2_OVER_PI * (u + 0.044715 * (u * u * u))
    t = np.tanh(inner)
    result = 0.5 * u * (1.0 + t)

    def backward(grad):
        dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * u ** 2)
        dt = (1.0 - t ** 2) * dinner
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * u * dt))

    return x._make(result, (x,), backward)


def _reference_layer_norm(x, weight, bias, eps=1e-5):
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = (x.data - mean) * inv_std
    result = normalized * weight.data + bias.data

    def backward(grad):
        if weight.requires_grad:
            weight._accumulate(
                (grad * normalized).sum(axis=tuple(range(grad.ndim - 1))))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        if x.requires_grad:
            gx = grad * weight.data
            mean_gx = gx.mean(axis=-1, keepdims=True)
            mean_gx_n = (gx * normalized).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (gx - mean_gx - normalized * mean_gx_n))

    return x._make(result, (x, weight, bias), backward)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _assert_bits_equal(new, ref):
    if ref is None:
        assert new is None
        return
    assert new.shape == ref.shape and new.dtype == ref.dtype
    np.testing.assert_array_equal(
        np.ascontiguousarray(new).view(np.uint32),
        np.ascontiguousarray(ref).view(np.uint32))


def _signed(rng, shape, zeros=0.1, large=0.0, magnitude=1e4):
    """Standard normals with ``+-0.0`` mixed in and, optionally, a share
    of ``magnitude``-scaled entries."""
    values = rng.standard_normal(shape).astype(np.float32)
    values[rng.random(shape) < large] *= np.float32(magnitude)
    values[rng.random(shape) < zeros] = -0.0
    values[rng.random(shape) < zeros] = 0.0
    return values


# ----------------------------------------------------------------------
# F.attention against the composite
# ----------------------------------------------------------------------
def _check_attention(kind, alibi, rate, batch, seq, spare, heads, head_dim,
                     with_grad, seed):
    config = TransformerConfig(vocab_size=8, max_seq_len=seq + spare,
                               dim=heads * head_dim, num_layers=2,
                               num_heads=heads, dropout=rate,
                               attention=kind, alibi=alibi)
    rng = np.random.default_rng(seed)
    x_data = _signed(rng, (batch, seq, config.dim))
    grad = _signed(rng, (batch, seq, config.dim))
    sides = []
    for forward in (MultiHeadAttention.forward, _reference_attention_forward):
        module = MultiHeadAttention(config, np.random.default_rng(seed))
        x = Tensor(x_data, requires_grad=True)
        if with_grad:
            out = forward(module, x)
            out.backward(grad)
        else:
            with no_grad():
                out = forward(module, x)
        assert out.requires_grad == with_grad
        sides.append((out.data, [x.grad] + [p.grad for p in
                                            module.parameters()],
                      module.drop.rng.bit_generator.state))
    (new, new_grads, new_state), (ref, ref_grads, ref_state) = sides
    _assert_bits_equal(new, ref)
    assert new_state == ref_state
    for new_grad, ref_grad in zip(new_grads, ref_grads):
        _assert_bits_equal(new_grad, ref_grad)


_ATTENTION_KINDS = st.sampled_from([("causal", False), ("causal", True),
                                    ("bidirectional", False),
                                    ("bidirectional", True)])


@settings(max_examples=25, deadline=None)
@given(kind=_ATTENTION_KINDS, rate=st.sampled_from([0.0, 0.1]),
       batch=st.integers(1, 2), seq=st.sampled_from([1, 2, 5]),
       spare=st.integers(0, 2), heads=st.sampled_from([1, 2]),
       head_dim=st.sampled_from([1, 4]), with_grad=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_attention_matches_composite(kind, rate, batch, seq, spare, heads,
                                     head_dim, with_grad, seed):
    _check_attention(kind[0], kind[1], rate, batch, seq, spare, heads,
                     head_dim, with_grad, seed)


@pytest.mark.exhaustive
@settings(max_examples=400, deadline=None)
@given(kind=_ATTENTION_KINDS, rate=st.sampled_from([0.0, 0.1, 0.5]),
       batch=st.integers(1, 4), seq=st.integers(1, 64),
       spare=st.integers(0, 8), heads=st.sampled_from([1, 2, 3, 4]),
       head_dim=st.sampled_from([1, 2, 8, 16, 32]), with_grad=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_attention_matches_composite_wide(kind, rate, batch, seq, spare,
                                          heads, head_dim, with_grad, seed):
    _check_attention(kind[0], kind[1], rate, batch, seq, spare, heads,
                     head_dim, with_grad, seed)


@pytest.mark.parametrize("kind", ["causal", "bidirectional"])
def test_attention_on_the_bench_shape_matches_composite(kind):
    """``compute_spill``'s block shape: batch 4, seq 64, 4 heads of 16."""
    _check_attention(kind, False, 0.0, 4, 64, 0, 4, 16, True, seed=3)


# ----------------------------------------------------------------------
# F.layer_norm and F.gelu against the old forms
# ----------------------------------------------------------------------
def _check_pointwise(shape, flags, large, magnitude, seed):
    rng = np.random.default_rng(seed)
    x_data = _signed(rng, shape, large=large, magnitude=magnitude)
    w_data = _signed(rng, shape[-1:])
    b_data = _signed(rng, shape[-1:])
    grad = _signed(rng, shape)
    results = []
    for gelu, layer_norm in ((F.gelu, F.layer_norm),
                             (_reference_gelu, _reference_layer_norm)):
        leaves = [Tensor(x_data, requires_grad=flags[0]),
                  Tensor(w_data, requires_grad=flags[1]),
                  Tensor(b_data, requires_grad=flags[2])]
        normed = layer_norm(*leaves)
        if normed.requires_grad:
            normed.backward(grad)
        gx = Tensor(x_data, requires_grad=True)
        activated = gelu(gx)
        activated.backward(grad)
        results.append([normed.data, activated.data, gx.grad]
                       + [leaf.grad for leaf in leaves])
    for new, ref in zip(*results):
        _assert_bits_equal(new, ref)


_FLAGS = st.tuples(st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(1,), (7,), (3, 8), (2, 5, 16)]),
       flags=_FLAGS, large=st.sampled_from([0.0, 0.2]),
       magnitude=st.sampled_from([1e4, 1e19]),
       seed=st.integers(0, 2 ** 16))
def test_layer_norm_and_gelu_match_old_forms(shape, flags, large, magnitude,
                                             seed):
    with np.errstate(all="ignore"):
        _check_pointwise(shape, flags, large, magnitude, seed)


@pytest.mark.exhaustive
@settings(max_examples=400, deadline=None)
@given(shape=st.lists(st.integers(1, 33), min_size=1, max_size=3).map(
           tuple),
       flags=_FLAGS, large=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       magnitude=st.sampled_from([1e-30, 1e4, 1e12, 1e19, 3e38]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_layer_norm_and_gelu_match_old_forms_wide(shape, flags, large,
                                                  magnitude, seed):
    with np.errstate(all="ignore"):
        _check_pointwise(shape, flags, large, magnitude, seed)


# ----------------------------------------------------------------------
# graph size and the score bias
# ----------------------------------------------------------------------
def _graph(out):
    nodes, stack = {id(out): out}, [out]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    return list(nodes.values())


def test_block_graph_size_is_pinned():
    """One ``compute_spill`` block (``COMPUTE_BOUND_MODEL``: dim 64,
    4 heads, seq 64, batch 4) records 13 leaves (the input and twelve
    parameters) and 10 op nodes: two layer norms, four linears, the
    attention, GELU and the two residual adds.  A refactor that splits
    attention back into a dozen nodes fails here."""
    config = gpt2_config(vocab_size=256, dim=64, num_layers=4, num_heads=4,
                         max_seq_len=64)
    block = TransformerBlock(config, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal(
        (4, 64, 64)).astype(np.float32), requires_grad=True)
    nodes = _graph(block(x))
    ops = [node._backward.__qualname__.split(".")[0] for node in nodes
           if node._parents]
    assert (len(nodes), len(ops)) == (23, 10)
    assert ops.count("attention") == 1


@pytest.mark.parametrize("kind,alibi", [("causal", False),
                                        ("bidirectional", True),
                                        ("causal", True)])
def test_score_bias_is_read_only_and_prefix_exact(kind, alibi):
    config = TransformerConfig(vocab_size=8, max_seq_len=9, dim=8,
                               num_layers=1, num_heads=2, attention=kind,
                               alibi=alibi)
    bias = MultiHeadAttention(config, np.random.default_rng(0)).score_bias
    with pytest.raises(ValueError):
        bias[0, 0, 0, 1] = 0.0
    for seq in (1, 4, 9):
        own = np.zeros((1, 1, seq, seq), dtype=np.float32)
        if kind == "causal":
            own = own + F.causal_mask(seq)[None, None]
        if alibi:
            own = own + alibi_bias(2, seq)[None]
        _assert_bits_equal(np.ascontiguousarray(bias[..., :seq, :seq]), own)
