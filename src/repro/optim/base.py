"""Optimizer interface over flat float32 arrays.

Storage-offloaded training flattens the whole model into one parameter
address space (§IV-D of the paper) and updates it subgroup by subgroup, so
optimizers here operate on **flat float32 arrays in place** rather than on
module trees.  The same step function is executed by three different
engines in this reproduction — the host-CPU baseline, the functional CSD
FPGA kernel, and plain in-memory training — which is what lets the tests
assert the paper's claim that SmartUpdate is *algorithmically identical* to
the baseline (bit-identical results).

All state arrays are float32, matching mixed-precision practice (the FP32
master parameters are part of the optimizer state; the FP16 working copy is
derived from them after each step).
"""

from __future__ import annotations

import abc
import contextlib
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import TrainingError
from ..memory import thread_arena

StateDict = Dict[str, np.ndarray]


@contextlib.contextmanager
def scratch_buffers(num_elements: int,
                    count: int) -> Iterator[List[np.ndarray]]:
    """Check out ``count`` float32 scratch vectors from the per-thread
    arena for the length of a block loop (contents undefined on entry,
    like ``np.empty``).  Per-call hot paths acquire and release directly:
    the generator behind this context costs more than the checkout.
    """
    arena = thread_arena()
    buffers = [arena.acquire(num_elements) for _ in range(count)]
    try:
        yield buffers
    finally:
        for buffer in buffers:
            arena.release(buffer)


class FlatOptimizer(abc.ABC):
    """Base class: an element-wise update rule over flat arrays."""

    #: Names of the auxiliary state arrays (besides the master parameters).
    state_names: Tuple[str, ...] = ()

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    @property
    def states_per_param(self) -> int:
        """FP32 words stored per parameter: master copy + moments.

        Adam stores 3 (the paper's 6M = 3 x 4 bytes x params relative to
        the 2-byte FP16 copy M); SGD-momentum and AdaGrad store 2 (4M).
        """
        return 1 + len(self.state_names)

    def init_state(self, num_params: int) -> StateDict:
        """Freshly zeroed auxiliary state for ``num_params`` parameters."""
        if num_params <= 0:
            raise TrainingError("num_params must be positive")
        return {name: np.zeros(num_params, dtype=np.float32)
                for name in self.state_names}

    def check(self, params: np.ndarray, grads: np.ndarray,
              state: StateDict) -> None:
        """Validate shapes/dtypes before an update."""
        if params.dtype != np.float32 or grads.dtype != np.float32:
            raise TrainingError("params and grads must be float32")
        if params.shape != grads.shape or params.ndim != 1:
            raise TrainingError(
                f"flat shapes must match: {params.shape} vs {grads.shape}")
        for name in self.state_names:
            if name not in state:
                raise TrainingError(f"missing optimizer state {name!r}")
            if state[name].shape != params.shape:
                raise TrainingError(
                    f"state {name!r} shape {state[name].shape} != "
                    f"{params.shape}")

    @abc.abstractmethod
    def step(self, params: np.ndarray, grads: np.ndarray, state: StateDict,
             step_num: int) -> None:
        """Apply one update in place.  ``step_num`` starts at 1."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.lr})"
