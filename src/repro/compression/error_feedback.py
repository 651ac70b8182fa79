"""Error feedback (residual accumulation) for lossy gradient compression.

Standard practice with Top-K sparsification (Lin et al., 2018; referenced
by the paper's related work): the compression residual is remembered and
added to the next step's gradient before compressing, so every coordinate's
contribution is eventually transmitted.  This is what keeps SmartComp's
accuracy close to exact training at 1-10% volume ratios (Table IV).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import TrainingError
from .topk import CompressedGradient, compress_topk


class ErrorFeedback:
    """Per-buffer residual memory with compensate/absorb hooks."""

    def __init__(self, num_elements: int) -> None:
        if num_elements <= 0:
            raise TrainingError("num_elements must be positive")
        self.residual = np.zeros(num_elements, dtype=np.float32)
        # Persistent staging for the kept-value gather, so a steady-state
        # compress step allocates nothing.
        self._kept: np.ndarray = np.empty(0, dtype=np.float32)

    def compensate(self, gradient: np.ndarray) -> np.ndarray:
        """Add ``gradient`` into the residual and return it (the vector
        to compress).

        The result *is* :attr:`residual`: follow every ``compensate``
        with the ``absorb`` that takes the transmitted part back out.
        """
        flat = np.asarray(gradient, dtype=np.float32).reshape(-1)
        if flat.size != self.residual.size:
            raise TrainingError(
                f"gradient size {flat.size} != residual size "
                f"{self.residual.size}")
        return np.add(flat, self.residual, out=self.residual)

    def absorb(self, compensated: np.ndarray,
               compressed: CompressedGradient) -> None:
        """Store what the compressor dropped from ``compensated``.

        Equivalent to ``residual = compensated - decompress(compressed)``
        element for element — including non-finite inputs, where a kept
        ``inf`` must leave ``inf - inf = nan`` behind — but written as a
        k-sized gather/subtract at the kept indices (after a copy, unless
        ``compensated`` is what :meth:`compensate` returned), so no dense
        temporaries are materialized.
        """
        if compensated is not self.residual:
            np.copyto(self.residual, compensated)
        if self._kept.size != compressed.num_kept:
            self._kept = np.empty(compressed.num_kept, dtype=np.float32)
        np.take(compensated, compressed.indices, out=self._kept)
        np.subtract(self._kept, compressed.values, out=self._kept)
        self.residual[compressed.indices] = self._kept

    @property
    def nbytes(self) -> int:
        """Bytes held: the residual and the kept-value staging."""
        return self.residual.nbytes + self._kept.nbytes

    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual))


def compress_with_feedback(
        gradient: np.ndarray, feedback: Optional[ErrorFeedback],
        volume_ratio: float,
        compressor: Callable[..., CompressedGradient] = compress_topk,
        **compressor_kwargs,
) -> CompressedGradient:
    """One compression step with optional error feedback.

    Extra keyword arguments (e.g. ``abs_scratch=`` for
    :func:`~repro.compression.topk.compress_topk`) pass through to the
    compressor.
    """
    if feedback is None:
        return compressor(gradient, volume_ratio, **compressor_kwargs)
    compensated = feedback.compensate(gradient)
    compressed = compressor(compensated, volume_ratio, **compressor_kwargs)
    feedback.absorb(compensated, compressed)
    return compressed
