"""Mixed-precision training utilities.

Storage-offloaded training (Fig. 1 of the paper) keeps an FP16 working copy
of the parameters for forward/backward while the FP32 master copy lives in
the optimizer state on storage.  Two consequences are modelled faithfully:

* Gradients must be scanned for NaN/Inf *before* the update so the dynamic
  loss scaler can skip the step — one of the reasons gradient offload cannot
  simply be overlapped with the update (§IV-C).
* Loss scaling multiplies the loss before backward and the gradients are
  unscaled before clipping/updating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List

import numpy as np

from ..errors import TrainingError
from ..memory import thread_arena


def to_fp16(array: np.ndarray) -> np.ndarray:
    """Cast an FP32 array to the FP16 working precision."""
    return np.asarray(array, dtype=np.float32).astype(np.float16)


def from_fp16(array: np.ndarray) -> np.ndarray:
    """Promote an FP16 array back to FP32."""
    return np.asarray(array, dtype=np.float16).astype(np.float32)


#: Elements per pass of :func:`round_fp16`, so that the source, the
#: destination and both scratch vectors stay cache-resident.
_ROUND_CHUNK = 1 << 16
_EXPONENT_BITS = np.int32(0x7F800000)
_SIGN_BIT = np.int32(-0x80000000)
#: Exponent field of 2**-14: below it FP16's spacing stops shrinking.
_MIN_EXPONENT = np.int32(113 << 23)
#: The 23 - 10 dropped mantissa bits, as an exponent-field increment.
_MAGIC_SHIFT = np.int32(13 << 23)


def round_fp16(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out <- float32(float16(src))`` without materialising the half.

    FP16's spacing for ``|x|`` in ``[2**e, 2**(e+1))`` is float32's at
    ``m = 2**(max(e, -14) + 13)``, so ``(|x| + m) - m`` rounds exactly as
    the cast does (to nearest even, normals and subnormals alike); the
    sign bit is OR-ed back, so ``-0`` keeps it.  Bit-equal to the two
    casts for ``|x| < 65520``; a pass that holds a larger or non-finite
    value takes the casts themselves.  ``src`` and ``out`` are contiguous
    float32 of one size and may be the same memory; the scratch comes
    from the calling thread's arena.
    """
    if not (src.dtype == out.dtype == np.float32 and src.size == out.size
            and src.flags.c_contiguous and out.flags.c_contiguous):
        raise TrainingError(
            "round_fp16 needs two contiguous float32 arrays of one size")
    src, out = src.reshape(-1), out.reshape(-1)
    arena = thread_arena()
    chunk = max(1, min(src.size, _ROUND_CHUNK))
    magnitude, magic = arena.acquire(chunk), arena.acquire(chunk)
    try:
        for start in range(0, src.size, chunk):
            x, y = src[start:start + chunk], out[start:start + chunk]
            mag, add = magnitude[:x.size], magic[:x.size]
            bits, add_bits = x.view(np.int32), add.view(np.int32)
            np.abs(x, out=mag)
            if not mag.max() < 65520.0:  # rounds to inf, or is NaN
                np.copyto(y, from_fp16(to_fp16(x)))
                continue
            np.bitwise_and(bits, _EXPONENT_BITS, out=add_bits)
            np.maximum(add_bits, _MIN_EXPONENT, out=add_bits)
            add_bits += _MAGIC_SHIFT
            mag += add
            mag -= add
            np.bitwise_and(bits, _SIGN_BIT, out=add_bits)
            np.bitwise_or(mag.view(np.int32), add_bits,
                          out=y.view(np.int32))
    finally:
        arena.release(magic)
        arena.release(magnitude)
    return out


#: Elements squared into float64 per pass of :func:`global_grad_norm`
#: (512 KiB of staging, whatever the model's size).
NORM_BLOCK = 1 << 16


def _sum_of_squares(flat: np.ndarray, staging: np.ndarray) -> float:
    """``np.square(flat, dtype=float64).sum()``, bit for bit, staging at
    most ``staging.size`` squares at a time: above that size the range
    is halved exactly where numpy's pairwise summation halves it, so
    the blocks are subtrees of the sum numpy would have computed."""
    if flat.size <= staging.size:
        squares = staging[:flat.size]
        np.square(flat, dtype=np.float64, out=squares)
        return float(squares.sum())
    half = flat.size // 2
    half -= half % 8
    return (_sum_of_squares(flat[:half], staging)
            + _sum_of_squares(flat[half:], staging))


def global_grad_norm(arrays: Iterable[np.ndarray]) -> float:
    """L2 norm over the concatenation of all gradient arrays.

    Doubles as the NaN/Inf scan: float32 squares cannot overflow float64
    nor cancel, so the norm is non-finite exactly when some element is.
    The float64 squares are staged :data:`NORM_BLOCK` elements at a time
    in the calling thread's arena.
    """
    arena = thread_arena()
    staging = arena.acquire(NORM_BLOCK, np.float64)
    total = 0.0
    try:
        for array in arrays:
            if array.size:
                total += _sum_of_squares(array.reshape(-1), staging)
    finally:
        arena.release(staging)
    return float(np.sqrt(total))


@dataclass
class LossScaler:
    """Dynamic loss scaling as in NVIDIA AMP / DeepSpeed.

    The scale doubles every ``growth_interval`` successful steps and halves
    on every overflow (with the overflowing step skipped).
    """

    scale: float = 2.0 ** 16
    growth_factor: float = 2.0
    backoff_factor: float = 0.5
    growth_interval: int = 1000
    min_scale: float = 1.0
    max_scale: float = 2.0 ** 24
    _good_steps: int = field(default=0, repr=False)
    #: Number of steps skipped due to overflow (observable for tests).
    skipped_steps: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise TrainingError("loss scale must be positive")

    def update(self, overflow: bool) -> bool:
        """Advance scaler state; returns True when the step may proceed."""
        if overflow:
            self.scale = max(self.scale * self.backoff_factor,
                             self.min_scale)
            self._good_steps = 0
            self.skipped_steps += 1
            return False
        self._good_steps += 1
        if self._good_steps >= self.growth_interval:
            self.scale = min(self.scale * self.growth_factor, self.max_scale)
            self._good_steps = 0
        return True


def clip_gradients(arrays: List[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.  Requires the *whole model's* gradients —
    the second constraint (§IV-C) that serializes gradient offload before
    the update phase.  A non-finite norm is the overflow verdict (see
    :func:`global_grad_norm`): the arrays are then left untouched — the
    engines still offload them on the skipped step.
    """
    if max_norm <= 0:
        raise TrainingError("max_norm must be positive")
    norm = global_grad_norm(arrays)
    if math.isfinite(norm) and norm > max_norm:
        factor = max_norm / (norm + 1e-12)
        for array in arrays:
            array *= factor
    return norm
