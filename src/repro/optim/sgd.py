"""SGD with momentum (§VII-F: a 4M-state optimizer, 3/4 of Adam's volume)."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from ..memory import thread_arena
from .base import FlatOptimizer, StateDict


class SGDMomentum(FlatOptimizer):
    """Heavy-ball SGD: ``m = mu * m + g; p -= lr * m``.

    Fused in place against one arena scratch vector; ``lr * m`` is a
    scalar-array product, so staging it with ``out=`` is bit-identical to
    the expression form.
    """

    state_names = ("momentum",)

    def __init__(self, lr: float = 1e-2, momentum: float = 0.9) -> None:
        super().__init__(lr)
        if not 0 <= momentum < 1:
            raise TrainingError("momentum must be in [0, 1)")
        self.momentum = np.float32(momentum)

    def step(self, params: np.ndarray, grads: np.ndarray, state: StateDict,
             step_num: int) -> None:
        self.check(params, grads, state)
        buf = state["momentum"]
        # AXPBY: m = mu * m + 1.0 * g
        buf *= self.momentum
        buf += grads
        arena = thread_arena()
        t1 = arena.acquire(params.size)
        try:
            np.multiply(buf, np.float32(self.lr), out=t1)
            params -= t1
        finally:
            arena.release(t1)
