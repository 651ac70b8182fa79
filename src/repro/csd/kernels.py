"""Functional FPGA kernels: the updater and the Top-K decompressor.

These emulate the microarchitecture of §V in software.  The hardware
streams a subgroup of at most ``D`` elements, resident in accelerator
DRAM, through a BRAM buffer of ``S`` elements.  Every optimizer update is
element-wise, so that streaming changes no result, and the updater
emulator runs the optimizer's fused sequence **once over the resident
subgroup** — one validation and one dispatch, each vector operation long
enough to release the GIL usefully — *bit-identical* to the flat host
update: the paper's "algorithmically identical to the baseline".  That a
(possibly custom) optimizer is element-wise is checked where it is
admitted, by :func:`repro.csd.hls.sanity_check_updater`.  The
decompressor scatters its stream ``S`` pairs at a time, and buffer-size
violations that would break the hardware raise here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..compression.topk import CompressedGradient
from ..errors import KernelError
from ..optim.base import FlatOptimizer

#: Default BRAM chunk: 16K float32 elements (64 KiB), comfortably inside
#: the KU15P's BRAM budget alongside pipeline registers.
DEFAULT_CHUNK_ELEMENTS = 16_384


@dataclass
class KernelCounters:
    """Work counters for throughput analysis (Fig. 14)."""

    invocations: int = 0
    elements_processed: int = 0
    bytes_streamed: int = 0


class UpdaterKernel:
    """The general updater (§V-A): SIMD AXPBY pipeline over one subgroup.

    Applies a :class:`FlatOptimizer`'s element-wise update to the resident
    subgroup in one pass.  ``chunk_elements`` is the design's BRAM buffer
    size ``S``, which cannot change an element-wise result.
    """

    def __init__(self, optimizer: FlatOptimizer,
                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> None:
        if chunk_elements <= 0:
            raise KernelError("chunk_elements must be positive")
        self.optimizer = optimizer
        self.chunk_elements = chunk_elements
        self.counters = KernelCounters()

    def run(self, params: np.ndarray, grads: np.ndarray,
            state: Dict[str, np.ndarray], step_num: int) -> None:
        """Update ``params``/``state`` in place from ``grads``.

        All arrays must be flat float32 views of the accelerator DRAM
        buffers.
        """
        self.optimizer.check(params, grads, state)
        self.optimizer.step(params, grads, state, step_num)
        total = params.size
        self.counters.invocations += 1
        self.counters.elements_processed += total
        # The pipeline streams grads + all state words in and out.
        words = 1 + self.optimizer.states_per_param
        self.counters.bytes_streamed += 4 * words * total


class DecompressorKernel:
    """The general decompressor (§V-B): chunked Top-K scatter.

    Initializes the gradient buffer to zero, then consumes the compressed
    (indices, values) stream ``S`` pairs at a time, routing each value to
    ``buffer[idx]``.  Purely data movement — no arithmetic — matching the
    near-zero DSP cost in Table III.
    """

    def __init__(self, chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> None:
        if chunk_elements <= 0:
            raise KernelError("chunk_elements must be positive")
        self.chunk_elements = chunk_elements
        self.counters = KernelCounters()

    def run(self, compressed: CompressedGradient,
            output: np.ndarray) -> np.ndarray:
        """Decompress into ``output`` (a flat float32 DRAM buffer)."""
        if output.dtype != np.float32 or output.ndim != 1:
            raise KernelError("output buffer must be flat float32")
        if output.size < compressed.original_size:
            raise KernelError(
                f"output buffer of {output.size} elements cannot hold "
                f"decompressed size {compressed.original_size}")
        view = output[:compressed.original_size]
        view[:] = 0.0
        indices = compressed.indices
        values = compressed.values
        # One vectorized bounds check over the whole stream (the hardware
        # validates the index range once at stream setup); the per-chunk
        # loop below is then pure scatter with no reduction passes.
        if indices.size and (int(indices.min()) < 0
                             or int(indices.max())
                             >= compressed.original_size):
            raise KernelError("compressed index out of range")
        for start in range(0, indices.size, self.chunk_elements):
            stop = min(start + self.chunk_elements, indices.size)
            view[indices[start:stop]] = values[start:stop]
        self.counters.invocations += 1
        self.counters.elements_processed += compressed.original_size
        self.counters.bytes_streamed += (compressed.nbytes
                                         + 4 * compressed.original_size)
        return view
