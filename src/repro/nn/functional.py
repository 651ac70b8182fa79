"""Differentiable neural-network operations built on :class:`Tensor`.

These are the ops a transformer needs: the affine map, GELU/ReLU
activations, stable softmax and log-softmax, layer normalization, embedding
lookup, dropout, causal masking, and token-level cross-entropy.  Each op
registers a custom backward closure rather than being composed from
primitives where a fused implementation is clearer or numerically safer.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .tensor import Tensor

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def linear(x: Tensor, weight: Tensor,
           bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight + bias`` as one graph node.

    The forward and the input gradient are one 2-D GEMM over all leading
    axes of ``x``.  The weight gradient is one GEMM per leading index,
    summed in index order: numpy reduces an outer axis sequentially, so
    these are the bits of a batched matmul followed by ``sum(axis=0)``
    (bar a 1x1 weight, whose lone element numpy sums pairwise), without
    its ``(batch, in, out)`` temporary.
    """
    out = x.data.reshape(-1, x.data.shape[-1]) @ weight.data
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        rows = grad.reshape(-1, grad.shape[-1])
        if x.requires_grad:
            x._accumulate((rows @ weight.data.T).reshape(x.data.shape))
        if weight.requires_grad:
            xs = x.data.reshape((-1,) + x.data.shape[-2:])
            gs = grad.reshape((-1,) + grad.shape[-2:])
            gw = xs[0].T @ gs[0]
            for index in range(1, len(xs)):
                gw += xs[index].T @ gs[index]
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(rows.sum(axis=0))

    return x._make(out.reshape(x.data.shape[:-1] + out.shape[-1:]),
                   parents, backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.maximum(0.0)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in GPT-2)."""
    u = x.data
    inner = _SQRT_2_OVER_PI * (u + 0.044715 * (u * u * u))
    t = np.tanh(inner)
    result = 0.5 * u * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * u ** 2)
        dt = (1.0 - t ** 2) * dinner
        x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * u * dt))

    return x._make(result, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    result = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * result * (1.0 - result))

    return x._make(result, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    result = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * result).sum(axis=axis, keepdims=True)
        x._accumulate(result * (grad - dot))

    return x._make(result, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    result = shifted - log_sum
    soft = np.exp(result)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return x._make(result, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension with affine transform."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normalized = (x.data - mean) * inv_std
    result = normalized * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
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


def embedding(indices: np.ndarray, table: Tensor) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    indices = np.asarray(indices)
    result = table.data[indices]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros(table.data.shape, dtype=np.float32)
        np.add.at(full, indices.reshape(-1),
                  grad.reshape(-1, table.data.shape[-1]))
        table._accumulate(full)

    return table._make(result, (table,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or rate is 0."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep).astype(np.float32) / keep

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return x._make(x.data * mask, (x,), backward)


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive attention mask: 0 on/below the diagonal, -inf above."""
    mask = np.zeros((seq_len, seq_len), dtype=np.float32)
    mask[np.triu_indices(seq_len, k=1)] = -1e9
    return mask


def masked_fill(x: Tensor, mask: np.ndarray) -> Tensor:
    """Add a (broadcastable) additive mask to ``x`` (for attention)."""
    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad)

    return x._make(x.data + mask, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean token-level cross entropy.

    ``logits`` has shape ``(..., vocab)``; ``targets`` the matching integer
    shape.  Rows whose target equals ``ignore_index`` contribute nothing.
    """
    targets = np.asarray(targets)
    vocab = logits.data.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    count = max(int(valid.sum()), 1)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = log_probs[np.arange(flat_targets.size),
                       np.where(valid, flat_targets, 0)]
    loss_value = -(picked * valid).sum() / count

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(log_probs)
        soft[np.arange(flat_targets.size),
             np.where(valid, flat_targets, 0)] -= 1.0
        soft *= (valid[:, None] / count)
        logits._accumulate(
            (soft * grad).reshape(logits.data.shape).astype(np.float32))

    return logits._make(np.float32(loss_value), (logits,), backward)


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Fraction of argmax predictions matching ``targets``."""
    predictions = logits.data.reshape(-1, logits.data.shape[-1]).argmax(-1)
    return float((predictions == np.asarray(targets).reshape(-1)).mean())
