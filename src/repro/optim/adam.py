"""Adam and AdamW update rules (the paper's primary optimizer).

The update is written as a fixed sequence of element-wise vector operations
— the exact shape the FPGA updater's SIMD AXPBY units execute (§V-A).  The
CSD kernel in `repro.csd.kernels` runs this same sequence over each
resident subgroup, so results are bit-identical by construction; that the
sequence is element-wise (any split gives the same bits) is what
`repro.csd.hls.sanity_check_updater` and the test suite assert.

Every operation runs **in place** (``out=``) against two arena-owned
scratch vectors, so a steady-state step allocates nothing: the fused
sequence is the same arithmetic in the same order as the textbook form —
the only difference is where the intermediates live — which keeps results
bit-identical to the original expression-per-line implementation (scalar
multiplication is commutative bit-for-bit, and the operation order is
preserved exactly; asserted by the zero-copy property tests).
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from ..memory import thread_arena
from .base import FlatOptimizer, StateDict


class Adam(FlatOptimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    state_names = ("momentum", "variance")

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(lr)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise TrainingError("betas must be in [0, 1)")
        if eps <= 0:
            raise TrainingError("eps must be positive")
        self.beta1 = np.float32(beta1)
        self.beta2 = np.float32(beta2)
        self.eps = np.float32(eps)

    def step(self, params: np.ndarray, grads: np.ndarray, state: StateDict,
             step_num: int) -> None:
        self.check(params, grads, state)
        momentum = state["momentum"]
        variance = state["variance"]
        one = np.float32(1.0)

        arena = thread_arena()
        t1 = arena.acquire(params.size)
        t2 = arena.acquire(params.size)
        try:
            # AXPBY: m = beta1 * m + (1 - beta1) * g
            momentum *= self.beta1
            np.multiply(grads, one - self.beta1, out=t1)
            momentum += t1
            # AXPBY: v = beta2 * v + (1 - beta2) * g^2
            variance *= self.beta2
            np.multiply(grads, grads, out=t1)
            t1 *= one - self.beta2
            variance += t1

            correction1 = one - self.beta1 ** np.float32(step_num)
            correction2 = one - self.beta2 ** np.float32(step_num)
            # t1 = m_hat = m / correction1; t2 = sqrt(v_hat) + eps
            np.divide(momentum, correction1, out=t1)
            np.divide(variance, correction2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += self.eps
            # p -= (lr * m_hat) / (sqrt(v_hat) + eps), in original order
            t1 *= np.float32(self.lr)
            t1 /= t2
            params -= t1
        finally:
            arena.release(t2)
            arena.release(t1)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.01) -> None:
        super().__init__(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        if weight_decay < 0:
            raise TrainingError("weight decay must be non-negative")
        self.weight_decay = np.float32(weight_decay)

    def step(self, params: np.ndarray, grads: np.ndarray, state: StateDict,
             step_num: int) -> None:
        # Decoupled decay applies directly to the parameters, before the
        # Adam moment update (scalar product lr * wd folded first, as the
        # original left-to-right expression evaluated it).
        arena = thread_arena()
        t1 = arena.acquire(params.size)
        try:
            np.multiply(params, np.float32(self.lr) * self.weight_decay,
                        out=t1)
            params -= t1
        finally:
            arena.release(t1)
        super().step(params, grads, state, step_num)
