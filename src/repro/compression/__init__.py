"""Gradient compression: Top-K (SmartComp), alternatives, error feedback."""

from .alternatives import (LowRankGradient, compress_lowrank,
                           compress_randomk, decompress_lowrank)
from .error_feedback import ErrorFeedback, compress_with_feedback
from .topk import (CompressedGradient, compress_topk, compression_error,
                   decompress_topk, keep_count)

__all__ = [
    "CompressedGradient",
    "ErrorFeedback",
    "LowRankGradient",
    "compress_lowrank",
    "compress_randomk",
    "compress_topk",
    "compress_with_feedback",
    "compression_error",
    "decompress_lowrank",
    "decompress_topk",
    "keep_count",
]
