"""Gradient compression: Top-K (SmartComp) and error feedback."""

from .error_feedback import ErrorFeedback, compress_with_feedback
from .topk import (CompressedGradient, compress_topk, compression_error,
                   decompress_topk, keep_count)

__all__ = [
    "CompressedGradient",
    "ErrorFeedback",
    "compress_topk",
    "compress_with_feedback",
    "compression_error",
    "decompress_topk",
    "keep_count",
]
