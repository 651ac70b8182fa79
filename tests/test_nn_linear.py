"""``F.linear`` and the slice backward against the forms they replaced.

The old two-node ``Linear`` (``x @ W`` then ``+ b`` through ``Tensor``
ops) and the old ``np.add.at`` slice backward are kept verbatim below as
references.  Weight and bias gradients and the slice backward must match
them bit for bit on every shape.  The forward and the input gradient are
one 2-D GEMM where the old form ran one GEMM per leading index; which
BLAS kernel a shape selects decides their last bits, so those match bit
for bit on the bench's model shapes and to ``rtol=1e-6`` elsewhere.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (LanguageModel, checkpointed_lm_loss, gpt2_config,
                      make_lm_dataset)
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .conftest import pin_note


# ----------------------------------------------------------------------
# the replaced forms, verbatim
# ----------------------------------------------------------------------
def _reference_linear(x, weight, bias):
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def _reference_getitem(self, index):
    def backward(grad):
        full = np.zeros(self.data.shape, dtype=np.float32)
        np.add.at(full, index, grad)
        self._accumulate(full)

    return self._make(self.data[index], (self,), backward)


# ----------------------------------------------------------------------
# the bench's two models: one forward/backward, pinned at the parent
# ----------------------------------------------------------------------
#: ``bench/workloads.py``'s ``UPDATE_BOUND_MODEL`` (plain loss, batch 2)
#: and ``COMPUTE_BOUND_MODEL`` (checkpointed loss, batch 4).
_BENCH_MODELS = {
    "update_bound": (dict(vocab_size=256, dim=256, num_layers=2,
                          num_heads=4, max_seq_len=16), 2, False),
    "compute_bound": (dict(vocab_size=256, dim=64, num_layers=4,
                           num_heads=4, max_seq_len=64), 4, True),
}

#: SHA-1 of the loss and every parameter gradient, recorded at the
#: commit before ``F.linear`` (two-node ``Linear``, ``np.add.at`` slices).
_PARENT_DIGESTS = {
    "update_bound": "1722b26512e7efefbf49ce29cbfd4b263607db49",
    "compute_bound": "652954708b57c2fbbd9e65e24291684df8c5d770",
}


def _linear_shapes(name):
    """``(x shape, in, out, bias)`` of every ``Linear`` call in one
    forward of the bench model ``name``."""
    model, batch, _ = _BENCH_MODELS[name]
    lead, dim = (batch, model["max_seq_len"]), model["dim"]
    return [(lead + (dim,), dim, 3 * dim, True),
            (lead + (dim,), dim, dim, True),
            (lead + (dim,), dim, 4 * dim, True),
            (lead + (4 * dim,), 4 * dim, dim, True),
            (lead + (dim,), dim, model["vocab_size"], False)]


@pytest.mark.parametrize("name", sorted(_BENCH_MODELS))
def test_bench_model_gradients_bit_identical_to_parent(name):
    kwargs, batch, checkpointed = _BENCH_MODELS[name]
    model = LanguageModel(gpt2_config(**kwargs), seed=1)
    tokens = make_lm_dataset(num_sequences=batch,
                             seq_len=kwargs["max_seq_len"] + 1,
                             vocab_size=kwargs["vocab_size"], seed=1)
    loss = (checkpointed_lm_loss(model, tokens) if checkpointed
            else model.loss(tokens))
    loss.backward()
    digest = hashlib.sha1(np.asarray(loss.data).tobytes())
    for _name, param in model.named_parameters():
        digest.update(param.grad.tobytes())
    assert digest.hexdigest() == _PARENT_DIGESTS[name], pin_note()


# ----------------------------------------------------------------------
# F.linear against the two-node reference
# ----------------------------------------------------------------------
def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


def _upstream(rng, shape):
    """An upstream gradient with signed zeros mixed in."""
    grad = rng.standard_normal(shape).astype(np.float32)
    grad[rng.random(shape) < 0.1] = -0.0
    grad[rng.random(shape) < 0.1] = 0.0
    return grad


def _both(x_data, w_data, b_data, flags, grad):
    """Run the reference and ``F.linear`` on fresh leaves; return each
    side's ``(out, x, weight, bias)``."""
    sides = []
    for op in (_reference_linear, F.linear):
        x = Tensor(x_data, requires_grad=flags[0])
        weight = Tensor(w_data, requires_grad=flags[1])
        bias = (None if b_data is None
                else Tensor(b_data, requires_grad=flags[2]))
        out = op(x, weight, bias)
        if out.requires_grad:
            out.backward(grad)
        sides.append((out, x, weight, bias))
    return sides


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       in_features=st.sampled_from([1, 3, 8, 32]),
       out_features=st.sampled_from([1, 5, 8, 96]),
       with_bias=st.booleans(),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2 ** 16))
def test_linear_matches_two_node_reference(lead, in_features, out_features,
                                           with_bias, flags, seed):
    rng = np.random.default_rng(seed)
    x_data = rng.standard_normal(tuple(lead) + (in_features,)).astype(
        np.float32)
    w_data = rng.standard_normal((in_features, out_features)).astype(
        np.float32)
    b_data = (rng.standard_normal(out_features).astype(np.float32)
              if with_bias else None)
    grad = _upstream(rng, tuple(lead) + (out_features,))
    (ref, rx, rw, rb), (new, nx, nw, nb) = _both(x_data, w_data, b_data,
                                                 flags, grad)

    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert new.requires_grad == ref.requires_grad
    # Forward and input gradient: a 2-D GEMM vs one GEMM per leading
    # index; the summation order inside a dot product may differ.
    scale = np.abs(x_data).reshape(-1, in_features) @ np.abs(w_data)
    np.testing.assert_allclose(new.data, ref.data, rtol=1e-6,
                               atol=1e-6 * float(scale.max()))
    for ref_leaf, new_leaf in ((rx, nx), (rw, nw), (rb, nb)):
        if ref_leaf is None or not ref_leaf.requires_grad:
            assert new_leaf is None or new_leaf.grad is None
    if rx.requires_grad:
        g_scale = np.abs(grad).reshape(-1, out_features) @ np.abs(w_data).T
        np.testing.assert_allclose(nx.grad, rx.grad, rtol=1e-6,
                                   atol=1e-6 * float(g_scale.max()))
    # Weight and bias gradients: the same GEMMs summed in the same order.
    # One exception: numpy reduces a lone output element pairwise, so a
    # 1x1 weight summed over 8 or more leading indices is not in order.
    if rw.requires_grad and w_data.size == 1:
        np.testing.assert_allclose(nw.grad, rw.grad, rtol=1e-6)
    elif rw.requires_grad:
        np.testing.assert_array_equal(_bits(nw.grad), _bits(rw.grad))
    if rb is not None and rb.requires_grad:
        np.testing.assert_array_equal(_bits(nb.grad), _bits(rb.grad))


@pytest.mark.parametrize("name", sorted(_BENCH_MODELS))
def test_linear_bit_identical_on_bench_shapes(name):
    rng = np.random.default_rng(7)
    for x_shape, in_features, out_features, with_bias in _linear_shapes(name):
        x_data = rng.standard_normal(x_shape).astype(np.float32)
        w_data = (rng.standard_normal((in_features, out_features))
                  / np.sqrt(in_features)).astype(np.float32)
        b_data = (rng.standard_normal(out_features).astype(np.float32)
                  if with_bias else None)
        grad = _upstream(rng, x_shape[:-1] + (out_features,))
        (ref, rx, rw, rb), (new, nx, nw, nb) = _both(
            x_data, w_data, b_data, (True, True, True), grad)
        np.testing.assert_array_equal(_bits(new.data), _bits(ref.data))
        for ref_leaf, new_leaf in ((rx, nx), (rw, nw), (rb, nb)):
            if ref_leaf is not None:
                np.testing.assert_array_equal(_bits(new_leaf.grad),
                                              _bits(ref_leaf.grad))


# ----------------------------------------------------------------------
# the slice backward against np.add.at
# ----------------------------------------------------------------------
_INDICES = [
    1, -1, np.int64(2), slice(None), slice(1, None, 2),
    slice(None, None, -1), slice(-3, -1), (0, slice(None), -2),
    (Ellipsis, 1), (None, 2), (slice(None, None, -2), None, 3),
    (-2, Ellipsis, slice(4, 0, -3)), (1, 2, 3),
    # advanced: still np.add.at, which sums repeated positions
    [0, 0, 2], np.array([True, False, True]), (slice(None), [1, 1, 3]),
    (np.array([2, 0, 2]), Ellipsis, -1),
]


@settings(max_examples=60, deadline=None)
@given(index=st.sampled_from(_INDICES), seed=st.integers(0, 2 ** 16))
def test_slice_backward_matches_add_at(index, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((3, 4, 5)).astype(np.float32)
    grads = []
    for take in (Tensor.__getitem__, _reference_getitem):
        leaf = Tensor(data, requires_grad=True)
        out = take(leaf, index)
        out.backward(_upstream(np.random.default_rng(seed), out.shape))
        grads.append(leaf.grad)
    np.testing.assert_array_equal(_bits(grads[0]), _bits(grads[1]))
