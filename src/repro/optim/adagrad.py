"""AdaGrad (Duchi et al., 2011) — the other §VII-F optimizer (4M state)."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from ..memory import thread_arena
from .base import FlatOptimizer, StateDict


class AdaGrad(FlatOptimizer):
    """Accumulated squared-gradient scaling: ``G += g^2; p -= lr*g/sqrt(G)``.

    Fused in place against two arena scratch vectors, preserving the
    original left-to-right evaluation order (``lr * g`` first, then the
    divide) so results stay bit-identical.
    """

    state_names = ("accumulator",)

    def __init__(self, lr: float = 1e-2, eps: float = 1e-10) -> None:
        super().__init__(lr)
        if eps <= 0:
            raise TrainingError("eps must be positive")
        self.eps = np.float32(eps)

    def step(self, params: np.ndarray, grads: np.ndarray, state: StateDict,
             step_num: int) -> None:
        self.check(params, grads, state)
        accumulator = state["accumulator"]
        arena = thread_arena()
        t1 = arena.acquire(params.size)
        t2 = arena.acquire(params.size)
        try:
            np.multiply(grads, grads, out=t1)
            accumulator += t1
            np.sqrt(accumulator, out=t2)
            t2 += self.eps
            np.multiply(grads, np.float32(self.lr), out=t1)
            t1 /= t2
            params -= t1
        finally:
            arena.release(t2)
            arena.release(t1)
