"""Top-K magnitude gradient compression (the SmartComp algorithm, §IV-C).

The GPU sorts gradients by magnitude and keeps the top ``k``; the CSD FPGA
decompresses by scattering the kept values into a zero vector (§V-B).  The
compressed representation is an (indices, values) pair, so the transferred
volume is ``2 x k x 4`` bytes — which is why the paper calls keeping the
top 1% of elements "2% compression": an index-value *pair* per kept
element, i.e. c% of the original 4-byte-per-element gradient volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError


@dataclass(frozen=True)
class CompressedGradient:
    """Sparse gradient: positions and values of the kept elements."""

    indices: np.ndarray
    values: np.ndarray
    original_size: int

    def __post_init__(self) -> None:
        if self.indices.shape != self.values.shape:
            raise TrainingError("indices/values length mismatch")
        if self.indices.ndim != 1:
            raise TrainingError("compressed gradients are flat")
        if self.original_size < self.indices.size:
            raise TrainingError("more kept elements than original size")

    @property
    def num_kept(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Wire size: 4-byte index + 4-byte value per kept element."""
        return 8 * self.num_kept

    @property
    def original_nbytes(self) -> int:
        return 4 * self.original_size

    @property
    def volume_ratio(self) -> float:
        """Transferred bytes / original bytes (the paper's c%)."""
        if self.original_size == 0:
            return 0.0
        return self.nbytes / self.original_nbytes


def keep_count(num_elements: int, volume_ratio: float) -> int:
    """Kept-element count for a target *volume* ratio.

    ``volume_ratio=0.02`` (the paper's default "2%") keeps 1% of elements
    because each costs an index-value pair.
    """
    if not 0 < volume_ratio <= 2.0:
        raise TrainingError(
            f"volume ratio must be in (0, 2], got {volume_ratio}")
    kept = int(num_elements * volume_ratio / 2.0)
    return max(1, min(kept, num_elements))


#: Size of the strided ``|g|`` sample that places the candidate threshold,
#: and the fewest sample elements allowed above it (so that a tiny ratio
#: does not hang the candidate count on a handful of samples).
_SAMPLE_ELEMENTS = 8192
_MIN_SAMPLE_RANK = 32

#: Elements whose ``|g|`` is staged per pass of the candidate search —
#: all the scratch :func:`compress_topk` needs, whatever the shard's size.
TOPK_BLOCK = 1 << 16


def _candidates(flat: np.ndarray, kept: int,
                scratch: np.ndarray) -> np.ndarray:
    """Ascending indices of a superset of the ``kept`` largest ``|flat|``.

    Magnitudes are compared as float32 bit patterns, which order like
    the non-negative values with infinity and then NaN on top, so a
    non-finite element always is a candidate.  A strided sample places
    a threshold expected to pass ``2 x kept`` elements, and the vector
    is then searched ``scratch.size`` elements at a time.  A zero
    threshold (a mostly-zero vector) passes the non-zeros, topped up
    with the lowest-index zeros when fewer than ``kept`` exist;
    otherwise too few passing means the sample misjudged, and every
    index is a candidate.
    """
    sample = np.abs(flat[::max(1, flat.size // _SAMPLE_ELEMENTS)])
    sample = sample.view(np.int32)
    rank = min(sample.size, max(_MIN_SAMPLE_RANK,
                                -(-2 * kept * sample.size // flat.size)))
    threshold = np.partition(sample, sample.size - rank)[sample.size - rank]
    floor = max(threshold, 1)
    found = []
    for start in range(0, flat.size, scratch.size):
        block = flat[start:start + scratch.size]
        bits = np.abs(block, out=scratch[:block.size]).view(np.int32)
        passing = np.flatnonzero(bits >= floor)
        passing += start
        found.append(passing)
    chosen = np.concatenate(found)
    if chosen.size >= kept:
        return chosen
    if threshold > 0:
        return np.arange(flat.size)
    zeros = np.flatnonzero(flat[:kept] == 0)[:kept - chosen.size]
    return np.sort(np.concatenate((chosen, zeros)))


def _select_topk(flat: np.ndarray, kept: int,
                 scratch: np.ndarray) -> np.ndarray:
    """Ascending indices of exactly the ``kept`` largest magnitudes,
    ranked by (magnitude descending, index ascending).

    Non-finite input keeps ``argpartition``'s order (NaN first) and its
    arbitrary ties, over a whole-vector ``|flat|`` that only this rare
    path materialises.
    """
    pool_indices = _candidates(flat, kept, scratch)
    pool = np.abs(flat[pool_indices])
    if not np.isfinite(pool.max()):
        top = np.argpartition(np.abs(flat), flat.size - kept)[-kept:]
        top.sort()
        return top
    cut = np.partition(pool, pool.size - kept)[pool.size - kept]
    keep = pool > cut
    ties = np.flatnonzero(pool == cut)[:kept - np.count_nonzero(keep)]
    keep[ties] = True
    return np.compress(keep, pool_indices)


def compress_topk(gradient: np.ndarray,
                  volume_ratio: float = 0.02,
                  abs_scratch: np.ndarray = None) -> CompressedGradient:
    """GPU-side compression: keep the largest-magnitude elements.

    Selection is exact with pinned ties (:func:`_select_topk`; the GPU
    does a partial sort); kept indices come out ascending, so the FPGA
    decompressor's scatter walks memory sequentially, as the hardware does.

    The engine hot path hands in contiguous fp32 1-D shard slices, which
    are used as-is — the input is only ever read, and the fancy-indexed
    gather of kept values already produces a fresh array (no aliasing, so
    no defensive copy) — so no normalisation pass runs per shard per
    iteration.  ``abs_scratch``, when given, stages the magnitude pass
    (``|g|``, :data:`TOPK_BLOCK` elements at a time) instead of a fresh
    temporary; it must be a flat float32 buffer of at least
    ``min(gradient.size, TOPK_BLOCK)`` elements (e.g. an arena block),
    and no more of it than that is touched.
    """
    if (isinstance(gradient, np.ndarray) and gradient.ndim == 1
            and gradient.dtype == np.float32
            and gradient.flags.c_contiguous):
        flat = gradient
    else:
        flat = np.ascontiguousarray(gradient, dtype=np.float32).reshape(-1)
    kept = keep_count(flat.size, volume_ratio)
    if kept >= flat.size:
        indices = np.arange(flat.size, dtype=np.int32)
    else:
        block = min(flat.size, TOPK_BLOCK)
        if abs_scratch is None:
            abs_scratch = np.empty(block, dtype=np.float32)
        indices = _select_topk(flat, kept,
                               abs_scratch[:block]).astype(np.int32)
    return CompressedGradient(indices=indices,
                              values=flat[indices],
                              original_size=flat.size)


def decompress_topk(compressed: CompressedGradient) -> np.ndarray:
    """Reference (host-side) decompression: scatter into zeros.

    The functional FPGA kernel in `repro.csd.kernels` performs the same
    scatter in BRAM-sized chunks; the tests assert both agree exactly.
    """
    output = np.zeros(compressed.original_size, dtype=np.float32)
    output[compressed.indices] = compressed.values
    return output


def compression_error(gradient: np.ndarray,
                      compressed: CompressedGradient) -> np.ndarray:
    """The residual the compression dropped (input to error feedback)."""
    flat = np.asarray(gradient, dtype=np.float32).reshape(-1)
    return flat - decompress_topk(compressed)
