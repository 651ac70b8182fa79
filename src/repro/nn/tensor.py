"""Reverse-mode automatic differentiation over numpy arrays.

This is the library's stand-in for ``torch.Tensor``: enough autograd to
train small transformers end-to-end so that the storage-offloaded training
runtime (`repro.runtime`) exercises the paper's real dataflow — forward,
backward, gradient offload, near-storage update — with genuine gradients.

Design: a thin tape.  Every differentiable operation creates a new
:class:`Tensor` whose ``_parents`` are its inputs and whose ``_backward``
closure scatters the output gradient to the parents.  ``backward()``
topologically sorts the graph and runs the closures in reverse.

Gradients are always accumulated in float32 regardless of the data dtype,
mirroring mixed-precision training where FP16 activations produce FP32
master gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Number]

#: Global autograd switch (see :func:`no_grad`).
_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (as in torch).

    Inside the context every op produces plain tensors with no parents and
    no backward closure, so intermediate activations are garbage-collected
    immediately — the enabler for block-wise activation checkpointing
    (Fig. 1's forward pass stores only block boundaries).
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Whether ops currently record the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1
                 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_grad_buffer")

    def __init__(self, data: TensorLike, requires_grad: bool = False,
                 dtype: Optional[np.dtype] = None, name: str = "") -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        elif array.dtype not in (np.float16, np.float32, np.int32,
                                 np.int64, np.bool_):
            # Default floating dtype is float32 (as in torch.tensor).
            array = array.astype(np.float32)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name
        #: Where the first gradient of a backward pass lands instead of
        #: a fresh copy (a view of a flat gradient buffer, bound by
        #: ``FlatParameterSpace``); None for every other tensor.
        self._grad_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() on non-scalar tensor")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        """A view of the same data outside the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype: np.dtype) -> "Tensor":
        """Differentiable dtype cast (used for fp16<->fp32 in mixed
        precision); the gradient is cast back to the source dtype's
        float32 accumulation."""
        out = Tensor(self.data.astype(dtype),
                     requires_grad=_GRAD_ENABLED and self.requires_grad)
        if out.requires_grad:
            out._parents = (self,)

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad.astype(np.float32))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is not None:
            self.grad += grad
        elif self._grad_buffer is None:
            self.grad = grad.copy()
        else:
            np.copyto(self._grad_buffer, grad)
            self.grad = self._grad_buffer

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    "scalar output")
            grad = np.ones_like(self.data, dtype=np.float32)
        # Topological order via iterative DFS (models can be deep).
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free intermediate gradients eagerly except for leaves.
                if node._parents and node is not self:
                    node.grad = None

    @staticmethod
    def _lift(value: TensorLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(
                grad * exponent * np.power(self.data, exponent - 1))

        return self._make(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other = self._lift(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.matmul(grad, np.swapaxes(other.data, -1, -2)))
            if other.requires_grad:
                other._accumulate(
                    np.matmul(np.swapaxes(self.data, -1, -2), grad))

        return self._make(np.matmul(self.data, other.data), (self, other),
                          backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        # Normalised first: argsort inverts (-1, 0, 1) to the identity.
        axes = (tuple(axis % self.ndim for axis in axes)
                or tuple(reversed(range(self.ndim))))
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.swapaxes(grad, axis1, axis2))

        return self._make(np.swapaxes(self.data, axis1, axis2), (self,),
                          backward)

    def __getitem__(self, index) -> "Tensor":
        # Basic indices (ints, slices, None, Ellipsis; not bools) make a
        # view that selects each element once, so ``+=`` replaces add.at;
        # on zeros it keeps add.at's ``0.0 + -0.0`` sign.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(part is None or part is Ellipsis
                    or isinstance(part, slice)
                    or (isinstance(part, (int, np.integer))
                        and not isinstance(part, bool)) for part in parts)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self.data.shape, dtype=np.float32)
            if basic:
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # reductions and elementwise math
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        result = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * result)

        return self._make(result, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        result = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / result)

        return self._make(result, (self,), backward)

    def tanh(self) -> "Tensor":
        result = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - result ** 2))

        return self._make(result, (self,), backward)

    def maximum(self, value: Number) -> "Tensor":
        mask = self.data > value

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(np.maximum(self.data, value), (self,), backward)


def tensor(data: TensorLike, requires_grad: bool = False,
           dtype: Optional[np.dtype] = None) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32),
                  requires_grad=requires_grad)


def ones(shape: Sequence[int], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32),
                  requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)

        def backward(grad: np.ndarray) -> None:
            for child, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if child.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, stop)
                    child._accumulate(grad[tuple(index)])

        out._backward = backward
    return out
