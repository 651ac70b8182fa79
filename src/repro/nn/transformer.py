"""Transformer building blocks and the four model families of the paper.

The evaluation uses GPT-2 (decoder-only), BERT (encoder-only), BLOOM
(decoder-only with ALiBi attention biases), and ViT (encoder over image
patches).  All four share the same block structure — attention + MLP with
pre- or post-layernorm — so one parametrized implementation covers them.
Instances here are small enough to train with numpy autograd; the
paper-scale configurations live analytically in `repro.nn.models`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import functional as F
from .modules import Dropout, Embedding, LayerNorm, Linear, Module
from .tensor import Tensor


@dataclass(frozen=True)
class TransformerConfig:
    """Hyperparameters for one transformer model."""

    vocab_size: int
    max_seq_len: int
    dim: int
    num_layers: int
    num_heads: int
    mlp_ratio: int = 4
    dropout: float = 0.0
    #: "causal" for GPT/BLOOM-style decoders, "bidirectional" for BERT/ViT.
    attention: str = "causal"
    #: Use ALiBi positional biases (BLOOM) instead of learned positions.
    alibi: bool = False
    #: Pre-layernorm (GPT-2/ViT/BLOOM) vs post-layernorm (original BERT).
    pre_norm: bool = True

    def __post_init__(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError(
                f"dim={self.dim} not divisible by heads={self.num_heads}")
        if self.attention not in ("causal", "bidirectional"):
            raise ValueError(f"unknown attention kind {self.attention!r}")


def alibi_slopes(num_heads: int) -> np.ndarray:
    """Per-head ALiBi slopes as in the BLOOM paper (powers of 2^(-8/n))."""
    base = 2.0 ** (-8.0 / num_heads)
    return np.array([base ** (i + 1) for i in range(num_heads)],
                    dtype=np.float32)


def alibi_bias(num_heads: int, seq_len: int) -> np.ndarray:
    """Additive (head, q, k) attention bias implementing ALiBi."""
    slopes = alibi_slopes(num_heads)
    positions = np.arange(seq_len)
    distance = positions[None, :] - positions[:, None]
    # Only past positions receive the (negative) linear bias.
    bias = np.minimum(distance, 0).astype(np.float32)
    return slopes[:, None, None] * bias[None, :, :]


class MultiHeadAttention(Module):
    """Scaled dot-product attention with optional causal mask and ALiBi;
    the score bias is built once, read-only, at ``max_seq_len``."""

    def __init__(self, config: TransformerConfig,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.qkv = Linear(config.dim, 3 * config.dim, rng)
        self.proj = Linear(config.dim, config.dim, rng,
                           init_scale=1.0 / math.sqrt(2 * config.num_layers))
        self.drop = Dropout(config.dropout, rng=np.random.default_rng(
            rng.integers(0, 2 ** 31)))
        seq = config.max_seq_len
        bias = np.zeros((1, 1, seq, seq), dtype=np.float32)
        if config.attention == "causal":
            bias = bias + F.causal_mask(seq)[None, None]
        if config.alibi:
            bias = bias + alibi_bias(config.num_heads, seq)[None]
        bias.flags.writeable = False
        self.score_bias = bias

    def forward(self, x: Tensor) -> Tensor:
        rate = self.drop.rate if self.drop.training else 0.0
        bias = self.score_bias[..., :x.shape[1], :x.shape[1]]
        return self.proj(F.attention(self.qkv(x), self.config.num_heads,
                                     bias, rate, self.drop.rng))


class MLP(Module):
    """Position-wise feed-forward block with GELU."""

    def __init__(self, config: TransformerConfig,
                 rng: np.random.Generator) -> None:
        super().__init__()
        hidden = config.mlp_ratio * config.dim
        self.fc = Linear(config.dim, hidden, rng)
        self.proj = Linear(hidden, config.dim, rng,
                           init_scale=1.0 / math.sqrt(2 * config.num_layers))

    def forward(self, x: Tensor) -> Tensor:
        return self.proj(F.gelu(self.fc(x)))


class TransformerBlock(Module):
    """One attention + MLP block, pre- or post-layernorm."""

    def __init__(self, config: TransformerConfig,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.ln1 = LayerNorm(config.dim)
        self.attn = MultiHeadAttention(config, rng)
        self.ln2 = LayerNorm(config.dim)
        self.mlp = MLP(config, rng)

    def forward(self, x: Tensor) -> Tensor:
        if self.config.pre_norm:
            x = x + self.attn(self.ln1(x))
            x = x + self.mlp(self.ln2(x))
        else:
            x = self.ln1(x + self.attn(x))
            x = self.ln2(x + self.mlp(x))
        return x


class TransformerBackbone(Module):
    """Embedding + stacked blocks + final norm; shared by all families."""

    def __init__(self, config: TransformerConfig, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.token_embed = Embedding(config.vocab_size, config.dim, rng)
        self.pos_embed = (None if config.alibi else
                          Embedding(config.max_seq_len, config.dim, rng))
        self.drop = Dropout(config.dropout, rng=np.random.default_rng(
            rng.integers(0, 2 ** 31)))
        for index in range(config.num_layers):
            setattr(self, f"block{index}", TransformerBlock(config, rng))
        self._num_blocks = config.num_layers
        self.ln_final = LayerNorm(config.dim)

    def forward(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (batch, seq), got {tokens.shape}")
        _batch, seq = tokens.shape
        if seq > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {seq} exceeds max {self.config.max_seq_len}")
        x = self.token_embed(tokens)
        if self.pos_embed is not None:
            x = x + self.pos_embed(np.arange(seq))
        x = self.drop(x)
        for index in range(self._num_blocks):
            x = getattr(self, f"block{index}")(x)
        return self.ln_final(x)


class LanguageModel(Module):
    """Decoder LM head over a backbone (GPT-2 / BLOOM style)."""

    def __init__(self, config: TransformerConfig, seed: int = 0) -> None:
        super().__init__()
        if config.attention != "causal":
            raise ValueError("LanguageModel requires causal attention")
        self.backbone = TransformerBackbone(config, seed=seed)
        rng = np.random.default_rng(seed + 1)
        self.lm_head = Linear(config.dim, config.vocab_size, rng, bias=False)

    def forward(self, tokens: np.ndarray) -> Tensor:
        return self.lm_head(self.backbone(tokens))

    def loss(self, tokens: np.ndarray) -> Tensor:
        """Next-token prediction loss over a batch of token sequences."""
        return F.cross_entropy(self.forward(tokens[:, :-1]), tokens[:, 1:])


class SequenceClassifier(Module):
    """Classification head over pooled backbone features (BERT/ViT style
    fine-tuning, and the model used for the GLUE-like Table IV tasks)."""

    def __init__(self, config: TransformerConfig, num_classes: int,
                 seed: int = 0) -> None:
        super().__init__()
        self.backbone = TransformerBackbone(config, seed=seed)
        rng = np.random.default_rng(seed + 1)
        self.head = Linear(config.dim, num_classes, rng)

    def forward(self, tokens: np.ndarray) -> Tensor:
        return self.head(self.backbone(tokens).mean(axis=1))

    def loss(self, tokens: np.ndarray, labels: np.ndarray) -> Tensor:
        return F.cross_entropy(self.forward(tokens), labels)


def gpt2_config(vocab_size: int = 256, max_seq_len: int = 64, dim: int = 64,
                num_layers: int = 2, num_heads: int = 4,
                dropout: float = 0.0) -> TransformerConfig:
    """A tiny GPT-2-shaped config for functional training tests."""
    return TransformerConfig(vocab_size, max_seq_len, dim, num_layers,
                             num_heads, dropout=dropout)


def bert_config(vocab_size: int = 256, max_seq_len: int = 64, dim: int = 64,
                num_layers: int = 2, num_heads: int = 4,
                dropout: float = 0.0) -> TransformerConfig:
    """A tiny BERT-shaped config (bidirectional, post-norm)."""
    return TransformerConfig(vocab_size, max_seq_len, dim, num_layers,
                             num_heads, dropout=dropout,
                             attention="bidirectional", pre_norm=False)


def bloom_config(vocab_size: int = 256, max_seq_len: int = 64, dim: int = 64,
                 num_layers: int = 2, num_heads: int = 4) -> TransformerConfig:
    """A tiny BLOOM-shaped config (causal with ALiBi biases)."""
    return TransformerConfig(vocab_size, max_seq_len, dim, num_layers,
                             num_heads, alibi=True)


def vit_config(num_patches: int = 16, num_patch_ids: int = 64, dim: int = 64,
               num_layers: int = 2, num_heads: int = 4) -> TransformerConfig:
    """A tiny ViT-shaped config: a bidirectional encoder over sequences
    of quantized patch ids, so images take the text models' pipeline."""
    return TransformerConfig(num_patch_ids, num_patches, dim, num_layers,
                             num_heads, attention="bidirectional")
