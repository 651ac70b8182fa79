"""Tests for the engine-family extensions: host offload, checkpoints,
quantized upstream, pruning-masked fine-tuning."""

import os
import stat

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import SequenceClassifier, bert_config, \
    make_classification_dataset
from repro.runtime import (BaselineOffloadEngine, HostOffloadEngine,
                           SmartInfinityEngine, TrainingConfig,
                           load_checkpoint, save_checkpoint)


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=7):
    return SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=3, seed=seed)


def config(**kwargs):
    base = dict(optimizer="adam", optimizer_kwargs={"lr": 1e-2},
                subgroup_elements=4096)
    base.update(kwargs)
    return TrainingConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return make_classification_dataset(num_train=32, num_dev=16,
                                       seq_len=16, vocab_size=32, seed=3)


def steps(engine, dataset, count=4, seed=0):
    rng = np.random.default_rng(seed)
    losses = []
    for tokens, labels in dataset.batches(8, rng):
        losses.append(engine.train_step(tokens, labels).loss)
        if len(losses) >= count:
            break
    return losses


# ----------------------------------------------------------------------
# host-memory offload (ZeRO-Offload substrate)
# ----------------------------------------------------------------------
def test_host_offload_bit_identical_to_storage_engines(tmp_path, dataset):
    host = HostOffloadEngine(make_model(), loss_fn, config=config())
    smart = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "s"), config=config(num_csds=2))
    base = BaselineOffloadEngine(make_model(), loss_fn,
                                 str(tmp_path / "b"), config=config(raid_members=1))
    host_losses = steps(host, dataset)
    smart_losses = steps(smart, dataset)
    base_losses = steps(base, dataset)
    assert host_losses == smart_losses == base_losses
    smart.close()
    base.close()


def test_host_offload_has_zero_storage_traffic(dataset):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    result = engine.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    assert result.traffic.host_total == 0
    assert result.traffic.internal_total == 0


def test_host_offload_capacity_wall():
    """The memory wall that motivates storage offloading (§II)."""
    with pytest.raises(TrainingError, match="wall"):
        HostOffloadEngine(make_model(), loss_fn,
                          config=config(host_memory_bytes=1024))


def test_host_offload_state_arrays_exposed(dataset):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    steps(engine, dataset, count=1)
    arrays = engine.state_arrays()
    assert len(arrays) == 3  # masters + momentum + variance
    assert all(a.size == engine.num_params for a in arrays)


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------
def test_checkpoint_resume_is_bit_identical(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "a"), config=config(num_csds=2))
    steps(engine, dataset, count=3, seed=0)
    ckpt = str(tmp_path / "ck.npz")
    save_checkpoint(engine, ckpt)
    continued = steps(engine, dataset, count=3, seed=1)
    engine.close()

    resumed = SmartInfinityEngine(make_model(seed=99), loss_fn,
                                  str(tmp_path / "r"), config=config(num_csds=3))
    load_checkpoint(resumed, ckpt)
    replayed = steps(resumed, dataset, count=3, seed=1)
    assert replayed == continued
    resumed.close()


def test_checkpoint_cross_engine(tmp_path, dataset):
    """A baseline checkpoint restores into Smart-Infinity and vice versa."""
    base = BaselineOffloadEngine(make_model(), loss_fn,
                                 str(tmp_path / "b"), config=config(raid_members=1))
    steps(base, dataset, count=2, seed=0)
    ckpt = str(tmp_path / "cross.npz")
    save_checkpoint(base, ckpt)
    base_next = steps(base, dataset, count=2, seed=5)
    base.close()

    host = HostOffloadEngine(make_model(seed=1), loss_fn, config=config())
    load_checkpoint(host, ckpt)
    host_next = steps(host, dataset, count=2, seed=5)
    assert host_next == base_next


def test_checkpoint_restores_scaler_and_step(tmp_path, dataset):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    steps(engine, dataset, count=3)
    engine.scaler.scale = 1234.0
    ckpt = str(tmp_path / "s.npz")
    save_checkpoint(engine, ckpt)

    fresh = HostOffloadEngine(make_model(seed=2), loss_fn,
                              config=config())
    load_checkpoint(fresh, ckpt)
    assert fresh.step_count == 3
    assert fresh.scaler.scale == 1234.0


def test_checkpoint_resumes_the_scaler_growth_countdown(tmp_path, dataset):
    """A resumed run must not restart the loss scaler's growth interval:
    3 steps -> save -> load -> 3 steps ends where 6 straight steps do."""
    def build(tag):
        engine = SmartInfinityEngine(make_model(), loss_fn,
                                     str(tmp_path / tag),
                                     config=config(num_csds=2))
        engine.scaler.growth_interval = 4
        return engine

    straight = build("straight")
    steps(straight, dataset, count=3, seed=0)
    steps(straight, dataset, count=3, seed=1)
    assert straight.scaler.scale == 2.0 ** 17      # grew once, at step 4

    first = build("first")
    steps(first, dataset, count=3, seed=0)
    ckpt = str(tmp_path / "growth.npz")
    save_checkpoint(first, ckpt)
    first.close()
    resumed = build("resumed")
    load_checkpoint(resumed, ckpt)
    assert resumed.scaler._good_steps == 3
    steps(resumed, dataset, count=3, seed=1)

    assert resumed.scaler.scale == straight.scaler.scale
    assert resumed.scaler._good_steps == straight.scaler._good_steps
    np.testing.assert_array_equal(resumed.space.gather_params(),
                                  straight.space.gather_params())
    straight.close()
    resumed.close()


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, dataset,
                                                   monkeypatch):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    steps(engine, dataset, count=1)
    ckpt = str(tmp_path / "atomic.npz")
    save_checkpoint(engine, ckpt)
    steps(engine, dataset, count=1)

    real_savez = np.savez

    def torn_savez(file, **arrays):
        real_savez(file, master_params=arrays["master_params"])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(engine, ckpt)
    monkeypatch.undo()

    assert os.listdir(tmp_path) == ["atomic.npz"]     # no temp file left
    fresh = HostOffloadEngine(make_model(seed=2), loss_fn, config=config())
    load_checkpoint(fresh, ckpt)
    assert fresh.step_count == 1


def test_save_flushes_the_directory_after_the_rename(tmp_path, dataset,
                                                     monkeypatch):
    """The rename survives a crash only once its directory entry is on
    the device: the file is flushed before ``os.replace``, the
    checkpoint's directory after it."""
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    steps(engine, dataset, count=1)
    events = []
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst):
        real_replace(src, dst)
        events.append("replace")

    def fsync(fd):
        info = os.fstat(fd)
        events.append(info.st_ino if stat.S_ISDIR(info.st_mode) else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    save_checkpoint(engine, str(tmp_path / "ckpt"))
    assert events == ["file", "replace", os.stat(tmp_path).st_ino]


def test_checkpoint_path_is_used_verbatim(tmp_path, dataset):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    steps(engine, dataset, count=1)
    ckpt = str(tmp_path / "no_suffix")
    save_checkpoint(engine, ckpt)
    assert os.listdir(tmp_path) == ["no_suffix"]
    fresh = HostOffloadEngine(make_model(seed=2), loss_fn, config=config())
    load_checkpoint(fresh, ckpt)
    assert fresh.step_count == 1


def test_checkpoint_from_before_good_steps_was_saved_still_loads(
        tmp_path, dataset):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    steps(engine, dataset, count=2)
    ckpt = str(tmp_path / "old.npz")
    save_checkpoint(engine, ckpt)
    with np.load(ckpt) as data:
        old_format = {key: data[key] for key in data if key != "good_steps"}
    np.savez(ckpt, **old_format)

    fresh = HostOffloadEngine(make_model(seed=2), loss_fn, config=config())
    fresh.scaler._good_steps = 7
    load_checkpoint(fresh, ckpt)
    assert fresh.step_count == 2
    assert fresh.scaler._good_steps == 0


def test_checkpoint_validates_compatibility(tmp_path, dataset):
    engine = HostOffloadEngine(make_model(), loss_fn, config=config())
    ckpt = str(tmp_path / "v.npz")
    save_checkpoint(engine, ckpt)

    other_opt = HostOffloadEngine(
        make_model(), loss_fn,
        config=config(optimizer="sgd", optimizer_kwargs={"lr": 0.1}))
    with pytest.raises(TrainingError, match="optimizer"):
        load_checkpoint(other_opt, ckpt)

    bigger = HostOffloadEngine(
        SequenceClassifier(bert_config(vocab_size=32, dim=48,
                                       num_layers=2, num_heads=2,
                                       max_seq_len=16),
                           num_classes=3, seed=0),
        loss_fn, config=config())
    with pytest.raises(TrainingError, match="parameters"):
        load_checkpoint(bigger, ckpt)


# ----------------------------------------------------------------------
# quantized upstream (§VIII-B)
# ----------------------------------------------------------------------
def quantized_config(**kwargs):
    return config(quantized_upstream=True, quantization_group=512,
                  **kwargs)


def test_quantized_upstream_cuts_host_reads_4x(tmp_path, dataset):
    plain = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "p"), config=config(num_csds=2))
    quant = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "q"), config=quantized_config(num_csds=2))
    r_plain = plain.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    r_quant = quant.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    assert r_plain.traffic.host_reads > 3.5 * r_quant.traffic.host_reads
    # Downstream gradient traffic is untouched by upstream quantization.
    assert r_plain.traffic.host_writes == r_quant.traffic.host_writes
    plain.close()
    quant.close()


def test_quantized_upstream_working_copy_close_to_masters(tmp_path,
                                                          dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "qa"), config=quantized_config(num_csds=2))
    steps(engine, dataset, count=2)
    working = engine.space.gather_params()
    masters = engine.gather_state_arrays()["master_params"]
    # Quantization error is bounded: int8 with per-group scales.
    assert np.abs(working - masters).max() < 0.05
    assert not np.array_equal(working, masters)
    engine.close()


def test_quantized_upstream_still_learns(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "ql"), config=quantized_config(num_csds=2))
    losses = []
    for epoch in range(4):
        losses += steps(engine, dataset, count=4, seed=epoch)
    assert np.mean(losses[-4:]) < np.mean(losses[:4])
    engine.close()


# ----------------------------------------------------------------------
# pruning-masked fine-tuning (§VIII-B)
# ----------------------------------------------------------------------
def test_pruning_mask_enforced_on_working_copy(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "pr"), config=config(num_csds=2, pruning_sparsity=0.5))
    steps(engine, dataset, count=3)
    working = engine.space.gather_params()
    assert (working[~engine.pruning_mask.keep] == 0).all()
    assert float((working == 0).mean()) >= 0.49
    engine.close()


def test_pruned_model_still_learns(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "pl"), config=config(num_csds=2, pruning_sparsity=0.3))
    losses = []
    for epoch in range(4):
        losses += steps(engine, dataset, count=4, seed=epoch)
    assert np.mean(losses[-4:]) < np.mean(losses[:4])
    engine.close()
