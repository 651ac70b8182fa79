"""Differentiable neural-network operations built on :class:`Tensor`: the
ops a transformer needs, each one graph node with a custom backward closure
where a fused implementation is clearer, faster or numerically safer."""

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
    """Gaussian error linear unit (tanh approximation, as in GPT-2), in
    place but in the plain formula's order and operands, so bit-equal."""
    u = x.data
    t = u * u
    t *= u
    t *= 0.044715
    t += u
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    result = np.add(1.0, t)
    np.multiply(0.5 * u, result, out=result)

    def backward(grad: np.ndarray) -> None:
        dinner = np.square(u)
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _SQRT_2_OVER_PI
        dt = np.subtract(1.0, np.square(t))
        dt *= dinner
        np.multiply(0.5 * u, dt, out=dt)
        np.multiply(0.5, np.add(1.0, t, out=dinner), out=dinner)
        dinner += dt
        x._accumulate(np.multiply(grad, dinner, out=dinner))

    return x._make(result, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    result = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * result * (1.0 - result))

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
    """Layer normalization over the last dimension with affine transform.
    ``x - mean`` is formed once, for numpy's ``_var`` steps and the
    normalisation; the rest runs in place, bit-equal to the plain form."""
    normalized = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(normalized).sum(axis=-1, keepdims=True)
    np.true_divide(var, np.intp(x.shape[-1]), out=var, casting="unsafe")
    var += eps
    inv_std = np.divide(1.0, np.sqrt(var, out=var), out=var)
    normalized *= inv_std
    result = normalized * weight.data
    result += bias.data

    def backward(grad: np.ndarray) -> None:
        lead = tuple(range(grad.ndim - 1))
        scratch = np.multiply(grad, normalized)
        if weight.requires_grad:
            weight._accumulate(scratch.sum(axis=lead))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=lead))
        if x.requires_grad:
            gx = grad * weight.data
            mean_gx_n = np.multiply(gx, normalized, out=scratch).mean(
                axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= np.multiply(normalized, mean_gx_n, out=scratch)
            x._accumulate(np.multiply(inv_std, gx, out=gx))

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


def _keep_mask(shape, rate: float,
               rng: np.random.Generator) -> np.ndarray:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) < 1.0 - rate).astype(np.float32) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is false or rate is 0."""
    if not training or rate <= 0.0:
        return x
    mask = _keep_mask(x.data.shape, rate, rng)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return x._make(x.data * mask, (x,), backward)


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive attention mask: 0 on/below the diagonal, -1e9 above.  Not
    ``-inf``: ``exp`` underflows to 0 all the same, but a fully masked row
    stays finite (uniform, not ``-inf - -inf = NaN``), as do its sums."""
    mask = np.zeros((seq_len, seq_len), dtype=np.float32)
    mask[np.triu_indices(seq_len, k=1)] = -1e9
    return mask


def attention(qkv: Tensor, heads: int, bias: np.ndarray, dropout: float = 0.0,
              rng: Optional[np.random.Generator] = None) -> Tensor:
    """``softmax(q @ k^T / sqrt(head_dim) + bias) @ v`` over a fused
    ``(batch, seq, 3 * dim)`` projection as one graph node, the softmax
    in place.  The q/k/v gradients are added into one zeroed ``(batch,
    seq, 3, heads, head_dim)`` buffer, so ``-0.0`` lands as ``0.0``."""
    batch, seq, width = qkv.shape
    split = qkv.data.reshape(batch, seq, 3, heads, width // (3 * heads))
    q, k, v = split.transpose(2, 0, 3, 1, 4)
    scale = np.float32(1.0 / math.sqrt(split.shape[-1]))
    weights = np.matmul(q, np.swapaxes(k, -1, -2))
    weights *= scale
    weights += bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    mask = _keep_mask(weights.shape, dropout, rng) if dropout > 0 else None
    kept = weights if mask is None else weights * mask
    context = np.matmul(kept, v).transpose(0, 2, 1, 3)

    def backward(grad: np.ndarray) -> None:
        grad = grad.reshape(context.shape).transpose(0, 2, 1, 3).copy()
        full = np.zeros(split.shape, dtype=np.float32)
        dq, dk, dv = full.transpose(2, 0, 3, 1, 4)
        dv += np.matmul(np.swapaxes(kept, -1, -2), grad)
        dweights = np.matmul(grad, np.swapaxes(v, -1, -2))
        if mask is not None:
            dweights *= mask
        dweights -= (dweights * weights).sum(axis=-1, keepdims=True)
        np.multiply(weights, dweights, out=dweights)
        dweights *= scale
        dq += np.matmul(dweights, k)
        dk += np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), dweights), -1, -2)
        qkv._accumulate(full.reshape(qkv.shape))

    return qkv._make(context.reshape(batch, seq, -1), (qkv,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean token-level cross entropy of ``(..., vocab)`` logits against
    integer ``targets``; rows whose target is ``ignore_index`` count 0."""
    targets = np.asarray(targets)
    vocab = logits.data.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = (np.ones_like(flat_targets, dtype=bool) if ignore_index is None
             else flat_targets != ignore_index)
    count = max(int(valid.sum()), 1)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = (np.arange(flat_targets.size), np.where(valid, flat_targets, 0))
    loss_value = -(log_probs[picked] * valid).sum() / count

    def backward(grad: np.ndarray) -> None:
        soft = np.exp(log_probs)
        soft[picked] -= 1.0
        soft *= (valid[:, None] / count)
        logits._accumulate(
            (soft * grad).reshape(logits.data.shape).astype(np.float32))

    return logits._make(np.float32(loss_value), (logits,), backward)


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Fraction of argmax predictions matching ``targets``."""
    predictions = logits.data.reshape(-1, logits.data.shape[-1]).argmax(-1)
    return float((predictions == np.asarray(targets).reshape(-1)).mean())
