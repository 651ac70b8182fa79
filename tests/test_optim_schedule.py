"""Tests for LR schedules and gradient accumulation."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import SequenceClassifier, bert_config, \
    make_classification_dataset
from repro.optim import (constant_schedule, cosine_warmup_decay,
                         linear_warmup_decay, make_schedule)
from repro.runtime import (HostOffloadEngine, SmartInfinityEngine,
                           TrainingConfig)

from .conftest import pin_note


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_constant_schedule():
    schedule = constant_schedule(0.01)
    assert schedule(1) == schedule(1000) == 0.01


def test_linear_warmup_ramps_then_decays():
    schedule = linear_warmup_decay(base_lr=1.0, warmup_steps=10,
                                   total_steps=110)
    assert schedule(1) == pytest.approx(0.1)
    assert schedule(5) == pytest.approx(0.5)
    assert schedule(10) == pytest.approx(1.0)
    assert schedule(60) == pytest.approx(0.5)
    assert schedule(110) == pytest.approx(0.0)
    # Beyond total steps the schedule clamps.
    assert schedule(500) == pytest.approx(0.0)


def test_linear_final_fraction_floor():
    schedule = linear_warmup_decay(base_lr=1.0, warmup_steps=0,
                                   total_steps=100, final_fraction=0.1)
    assert schedule(100) == pytest.approx(0.1)


def test_cosine_decay_monotone_after_warmup():
    schedule = cosine_warmup_decay(base_lr=1.0, warmup_steps=5,
                                   total_steps=55)
    values = [schedule(step) for step in range(5, 56)]
    assert all(later <= earlier + 1e-12
               for earlier, later in zip(values, values[1:]))
    assert values[0] == pytest.approx(1.0)
    assert values[-1] == pytest.approx(0.0, abs=1e-9)


def test_schedule_validation():
    with pytest.raises(TrainingError):
        linear_warmup_decay(base_lr=0.0, warmup_steps=1, total_steps=10)
    with pytest.raises(TrainingError):
        linear_warmup_decay(base_lr=1.0, warmup_steps=10, total_steps=10)
    with pytest.raises(KeyError):
        make_schedule("staircase", base_lr=1.0)


def test_make_schedule_dispatch():
    schedule = make_schedule("cosine", base_lr=0.5, warmup_steps=1,
                             total_steps=10)
    assert schedule(1) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def _loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def _model(seed=7):
    return SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=3, seed=seed)


def _config(**overrides):
    return TrainingConfig(optimizer="adam", optimizer_kwargs={"lr": 1e-2},
                          subgroup_elements=4096, **overrides)


@pytest.fixture(scope="module")
def dataset():
    return make_classification_dataset(num_train=32, seq_len=16,
                                       vocab_size=32, seed=3)


def test_engine_applies_schedule(dataset):
    engine = HostOffloadEngine(_model(), _loss_fn, config=_config())
    engine.set_lr_schedule(linear_warmup_decay(base_lr=1e-2,
                                               warmup_steps=2,
                                               total_steps=10))
    engine.train_step(dataset.train_tokens[:4], dataset.train_labels[:4])
    assert engine.optimizer.lr == pytest.approx(5e-3)
    engine.train_step(dataset.train_tokens[:4], dataset.train_labels[:4])
    assert engine.optimizer.lr == pytest.approx(1e-2)


def test_scheduled_runs_stay_bit_identical(tmp_path, dataset):
    def scheduled(engine):
        engine.set_lr_schedule(cosine_warmup_decay(base_lr=1e-2,
                                                   warmup_steps=2,
                                                   total_steps=8))
        losses = []
        for tokens, labels in dataset.batches(
                8, np.random.default_rng(0)):
            losses.append(engine.train_step(tokens, labels).loss)
        return losses

    host = HostOffloadEngine(_model(), _loss_fn, config=_config())
    smart = SmartInfinityEngine(_model(), _loss_fn, str(tmp_path / "s"),
                                config=_config(num_csds=2))
    assert scheduled(host) == scheduled(smart)
    smart.close()


# ----------------------------------------------------------------------
# gradient accumulation
# ----------------------------------------------------------------------
def test_accumulated_step_matches_large_batch(dataset):
    tokens, labels = dataset.train_tokens[:8], dataset.train_labels[:8]

    whole = HostOffloadEngine(_model(), _loss_fn, config=_config())
    whole.train_step(tokens, labels)
    whole_params = whole.space.gather_params()

    micro = HostOffloadEngine(_model(), _loss_fn, config=_config())
    micro.train_step_accumulated([
        (tokens[:4], labels[:4]), (tokens[4:], labels[4:])])
    micro_params = micro.space.gather_params()

    # Averaged micro-batch gradients equal the big-batch gradient up to
    # float summation order; Adam's sqrt-normalization can amplify those
    # last-ulp differences to ~lr x 1e-3 on individual coordinates.
    np.testing.assert_allclose(micro_params, whole_params, atol=2e-5)


#: Three accumulated steps of 12 samples in 1, 2 and 3 micro-batches:
#: SHA-1 of the final parameters, then every step's (loss, grad_norm) as
#: ``float.hex``.  Recorded when ``Linear`` became one node: its input
#: gradient is one 2-D GEMM, and at dim 32 (``(B*16, N) @ (N, 32)`` for
#: qkv, attn.proj and mlp.fc) OpenBLAS rounds that differently from one
#: GEMM per sample.  The first loss is unchanged; every step-1 gradient
#: tensor moved by at most 2.9 float32 eps of its own scale.
_PARENT_ACCUMULATED = {
    1: ("3127fbb40573ac39daaa65f98b61a813bd3f326a",
        [("0x1.37f6c20000000p+0", "0x1.89a47e4f61b90p+3"),
         ("0x1.6467c20000000p+1", "0x1.c5a14d4e5e5cdp+3"),
         ("0x1.3559980000000p+1", "0x1.42be54c178b27p+3")]),
    2: ("2bc451183a23ba9f7b38d28062cbca3b10b33bae",
        [("0x1.37f6c00000000p+0", "0x1.89a47de1bd602p+3"),
         ("0x1.6467c00000000p+1", "0x1.c5a14dc6616a0p+3"),
         ("0x1.35599c0000000p+1", "0x1.42be68a8cbfdbp+3")]),
    3: ("54845543f016811c921695675afff25e867311f2",
        [("0x1.37f6c0aaaaaabp+0", "0x1.89a47e6a853e9p+3"),
         ("0x1.64678e0000000p+1", "0x1.c5a1b8e66cc18p+3"),
         ("0x1.3559df5555555p+1", "0x1.42be50b606012p+3")]),
}


@pytest.mark.parametrize("micro", [1, 2, 3])
def test_accumulated_steps_bit_identical_to_recorded_parent(dataset, micro):
    import hashlib
    engine = HostOffloadEngine(_model(), _loss_fn, config=_config())
    trail = []
    for step in range(3):
        tokens = dataset.train_tokens[step * 8:step * 8 + 12]
        labels = dataset.train_labels[step * 8:step * 8 + 12]
        size = 12 // micro
        result = engine.train_step_accumulated([
            (tokens[i:i + size], labels[i:i + size])
            for i in range(0, 12, size)])
        trail.append((result.loss.hex(), result.grad_norm.hex()))
    checksum = hashlib.sha1(
        engine.space.gather_params().tobytes()).hexdigest()
    assert (checksum, trail) == _PARENT_ACCUMULATED[micro], pin_note()
    # One accumulator, and only when there is something to accumulate.
    assert (engine._accumulated is None) == (micro == 1)


def test_accumulated_step_counts_once(tmp_path, dataset):
    engine = SmartInfinityEngine(_model(), _loss_fn, str(tmp_path / "a"),
                                 config=_config(num_csds=2))
    tokens, labels = dataset.train_tokens[:8], dataset.train_labels[:8]
    result = engine.train_step_accumulated([
        (tokens[:4], labels[:4]), (tokens[4:], labels[4:])])
    assert result.step == 1
    assert engine.step_count == 1
    # Offload traffic is one iteration's worth, not per micro-batch.
    from repro.runtime import expected_traffic
    expected = expected_traffic(engine.num_params, "smartupdate")
    assert result.traffic.host_writes == expected["host_writes"]
    engine.close()


def test_accumulation_requires_batches(dataset):
    engine = HostOffloadEngine(_model(), _loss_fn, config=_config())
    with pytest.raises(TrainingError):
        engine.train_step_accumulated([])


def test_accumulated_loss_is_mean(dataset):
    engine = HostOffloadEngine(_model(), _loss_fn, config=_config())
    tokens, labels = dataset.train_tokens[:8], dataset.train_labels[:8]
    micro = [(tokens[:4], labels[:4]), (tokens[4:], labels[4:])]
    # Compute the per-micro-batch losses on the same initial weights.
    probe = HostOffloadEngine(_model(), _loss_fn, config=_config())
    individual = [
        float(_loss_fn(probe.model, t, l).item()) for t, l in micro]
    result = engine.train_step_accumulated(micro)
    assert result.loss == pytest.approx(np.mean(individual), rel=1e-5)
