"""Int8 weight quantization for the model-compression use case (§VIII-B).

The paper's discussion: when Smart-Infinity is used for quantization-aware
fine-tuning, the CSD can *quantize the updated weights before sending them
upstream*, shrinking the upstream bottleneck by another 4x — at the price
of the CSD computing per-group scales and the GPU dequantizing for the
straight-through-estimator (STE) forward pass.

This module provides the symmetric int8 codec, the chunked CSD-side
quantizer kernel (same BRAM-sized streaming discipline as the updater),
and the host-side dequantizer.  Quantize -> dequantize is exactly
idempotent on already-quantized grids, and reconstruction error is bounded
by half a quantization step — both property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import KernelError

#: Symmetric signed 8-bit range.
QMAX = 127


@dataclass(frozen=True)
class QuantizedTensor:
    """Int8 values plus the per-group float32 scales."""

    values: np.ndarray
    scales: np.ndarray
    group_size: int
    original_size: int

    def __post_init__(self) -> None:
        if self.values.dtype != np.int8:
            raise KernelError("quantized values must be int8")
        if self.scales.dtype != np.float32:
            raise KernelError("scales must be float32")
        expected = -(-self.original_size // self.group_size)
        if self.scales.size != expected:
            raise KernelError(
                f"need {expected} scales for {self.original_size} values "
                f"at group size {self.group_size}, got {self.scales.size}")

    @property
    def nbytes(self) -> int:
        """Wire size: one byte per value + four per group scale."""
        return self.values.size + 4 * self.scales.size


def quantize_int8(array: np.ndarray, group_size: int = 4096
                  ) -> QuantizedTensor:
    """Symmetric per-group int8 quantization.

    Each contiguous group of ``group_size`` elements shares one scale
    ``max|x| / 127``; all-zero groups get scale 1 so dequantization stays
    exact.
    """
    if group_size <= 0:
        raise KernelError("group_size must be positive")
    flat = np.ascontiguousarray(array, dtype=np.float32).reshape(-1)
    num_groups = -(-flat.size // group_size)
    values = np.empty(flat.size, dtype=np.int8)
    scales = np.empty(num_groups, dtype=np.float32)
    for group in range(num_groups):
        start = group * group_size
        stop = min(start + group_size, flat.size)
        chunk = flat[start:stop]
        peak = float(np.abs(chunk).max()) if chunk.size else 0.0
        scale = np.float32(peak / QMAX) if peak > 0 else np.float32(1.0)
        scales[group] = scale
        values[start:stop] = np.clip(
            np.rint(chunk / scale), -QMAX, QMAX).astype(np.int8)
    return QuantizedTensor(values=values, scales=scales,
                           group_size=group_size,
                           original_size=flat.size)


def dequantize_int8(quantized: QuantizedTensor) -> np.ndarray:
    """Host-side reconstruction: ``values * scale`` per group."""
    output = np.empty(quantized.original_size, dtype=np.float32)
    size = quantized.group_size
    for group, scale in enumerate(quantized.scales):
        start = group * size
        stop = min(start + size, quantized.original_size)
        output[start:stop] = (
            quantized.values[start:stop].astype(np.float32) * scale)
    return output


def quantization_error(array: np.ndarray,
                       quantized: QuantizedTensor) -> float:
    """Max absolute reconstruction error (bounded by scale/2 per group)."""
    flat = np.asarray(array, dtype=np.float32).reshape(-1)
    return float(np.abs(flat - dequantize_int8(quantized)).max())


class QuantizerKernel:
    """CSD-side chunked quantizer (the §VIII-B FPGA extension).

    Streams the updated FP32 masters through BRAM-sized chunks, emitting
    int8 values and group scales.  The chunk size must be a multiple of
    the quantization group so chunking never splits a group (the sanity
    check rejects misconfigured kernels, as the HLS templates would).
    """

    #: Default BRAM chunk, rounded down to a whole number of groups.
    DEFAULT_CHUNK_ELEMENTS = 16_384

    def __init__(self, group_size: int = 4096,
                 chunk_elements: Optional[int] = None) -> None:
        if chunk_elements is None:
            chunk_elements = max(
                group_size,
                self.DEFAULT_CHUNK_ELEMENTS // group_size * group_size)
        if chunk_elements % group_size != 0:
            raise KernelError(
                f"chunk ({chunk_elements}) must be a multiple of the "
                f"quantization group ({group_size})")
        self.group_size = group_size
        self.chunk_elements = chunk_elements
        self.elements_processed = 0
        self.invocations = 0

    def run(self, masters: np.ndarray) -> QuantizedTensor:
        """Quantize a flat FP32 buffer chunk by chunk."""
        flat = np.ascontiguousarray(masters, dtype=np.float32).reshape(-1)
        pieces = []
        scale_pieces = []
        for start in range(0, flat.size, self.chunk_elements):
            stop = min(start + self.chunk_elements, flat.size)
            part = quantize_int8(flat[start:stop],
                                 group_size=self.group_size)
            pieces.append(part.values)
            scale_pieces.append(part.scales)
        self.invocations += 1
        self.elements_processed += flat.size
        return QuantizedTensor(
            values=np.concatenate(pieces) if pieces else
            np.empty(0, dtype=np.int8),
            scales=np.concatenate(scale_pieces) if scale_pieces else
            np.empty(0, dtype=np.float32),
            group_size=self.group_size,
            original_size=flat.size)
