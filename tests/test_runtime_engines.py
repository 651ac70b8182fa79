"""Integration tests for the training engines.

These assert the paper's central functional claims:

* SmartUpdate is algorithmically identical to the baseline — losses and
  final parameters match *bitwise* (Table IV's "SU+O == Baseline" rows);
* the host-interconnect traffic of each method matches Table I exactly;
* SmartComp still learns, and its traffic shrinks to c% x 2M.
"""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn import SequenceClassifier, bert_config, \
    make_classification_dataset
from repro.api import ENGINE_MODES, create_engine
from repro.runtime import (BaselineOffloadEngine, SmartInfinityEngine,
                           TrainingConfig, distribute_shards,
                           expected_traffic, load_checkpoint,
                           save_checkpoint)

VOCAB = 32
SEQ = 16


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=7):
    return SequenceClassifier(
        bert_config(vocab_size=VOCAB, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=SEQ), num_classes=3, seed=seed)


@pytest.fixture(scope="module")
def dataset():
    return make_classification_dataset(num_train=32, num_dev=16,
                                       seq_len=SEQ, vocab_size=VOCAB,
                                       seed=3)


def train(engine, dataset, epochs=2, batch=8):
    losses = []
    for epoch in range(epochs):
        rng = np.random.default_rng(epoch)
        for tokens, labels in dataset.batches(batch, rng):
            losses.append(engine.train_step(tokens, labels).loss)
    return losses


def config(**kwargs):
    base = dict(optimizer="adam", optimizer_kwargs={"lr": 1e-2},
                subgroup_elements=4096)
    base.update(kwargs)
    return TrainingConfig(**base)


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------
def test_smartupdate_bitwise_identical_to_baseline(tmp_path, dataset):
    runs = {}
    engines = {
        "baseline": lambda d: BaselineOffloadEngine(
            make_model(), loss_fn, d, config=config(raid_members=2)),
        "su_handler": lambda d: SmartInfinityEngine(
            make_model(), loss_fn, d, config=config(num_csds=3)),
        "su_naive": lambda d: SmartInfinityEngine(
            make_model(), loss_fn, d, config=config(num_csds=3, use_transfer_handler=False)),
    }
    for name, factory in engines.items():
        engine = factory(str(tmp_path / name))
        losses = train(engine, dataset)
        runs[name] = (losses, engine.space.gather_params())
        engine.close()

    base_losses, base_params = runs["baseline"]
    for name in ("su_handler", "su_naive"):
        losses, params = runs[name]
        assert losses == base_losses, name
        np.testing.assert_array_equal(params, base_params)


def test_bit_identity_holds_for_sgd(tmp_path, dataset):
    cfg = config(optimizer="sgd", optimizer_kwargs={"lr": 0.05},
                 raid_members=1, num_csds=2)
    base = BaselineOffloadEngine(make_model(), loss_fn,
                                 str(tmp_path / "b"), config=cfg)
    smart = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "s"), config=cfg)
    base_losses = train(base, dataset, epochs=1)
    smart_losses = train(smart, dataset, epochs=1)
    assert base_losses == smart_losses
    np.testing.assert_array_equal(base.space.gather_params(),
                                  smart.space.gather_params())
    base.close()
    smart.close()


def test_identity_independent_of_csd_count(tmp_path, dataset):
    finals = []
    for count in (1, 2, 5):
        engine = SmartInfinityEngine(make_model(), loss_fn,
                                     str(tmp_path / f"n{count}"),
                                     config=config(num_csds=count))
        train(engine, dataset, epochs=1)
        finals.append(engine.space.gather_params())
        engine.close()
    np.testing.assert_array_equal(finals[0], finals[1])
    np.testing.assert_array_equal(finals[0], finals[2])


# ----------------------------------------------------------------------
# Table I traffic
# ----------------------------------------------------------------------
def test_baseline_traffic_matches_table1(tmp_path, dataset):
    engine = BaselineOffloadEngine(make_model(), loss_fn,
                                   str(tmp_path / "b"), config=config(raid_members=2))
    result = engine.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    expected = expected_traffic(engine.num_params, "baseline")
    assert result.traffic.host_reads == expected["host_reads"]
    assert result.traffic.host_writes == expected["host_writes"]
    engine.close()


def test_smartupdate_traffic_matches_table1(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "s"), config=config(num_csds=3))
    result = engine.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    expected = expected_traffic(engine.num_params, "smartupdate")
    assert result.traffic.host_reads == expected["host_reads"]
    assert result.traffic.host_writes == expected["host_writes"]
    # The removed optimizer-state traffic moved to the internal path.
    assert result.traffic.internal_total > 0
    engine.close()


def test_smartupdate_reduces_host_traffic_4x_for_adam(tmp_path, dataset):
    base = expected_traffic(100, "baseline")
    smart = expected_traffic(100, "smartupdate")
    ratio = (base["host_reads"] + base["host_writes"]) / (
        smart["host_reads"] + smart["host_writes"])
    assert ratio == pytest.approx(4.0)


def test_smartcomp_traffic_matches_table1(tmp_path, dataset):
    ratio = 0.02
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "c"), config=config(num_csds=3, compression_ratio=ratio))
    result = engine.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    shard_sizes = [s.count for s in
                   distribute_shards(engine.num_params, 3)]
    expected = expected_traffic(engine.num_params, "smartcomp",
                                compression_ratio=ratio,
                                shard_sizes=shard_sizes)
    assert result.traffic.host_writes == expected["host_writes"]
    assert result.traffic.host_reads == expected["host_reads"]
    engine.close()


def test_sgd_traffic_uses_4m_states(tmp_path, dataset):
    cfg = config(optimizer="sgd", optimizer_kwargs={"lr": 0.05})
    engine = BaselineOffloadEngine(make_model(), loss_fn,
                                   str(tmp_path / "sg"), config=cfg)
    result = engine.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    expected = expected_traffic(engine.num_params, "baseline",
                                states_per_param=2)
    assert result.traffic.host_reads == expected["host_reads"]
    assert result.traffic.host_writes == expected["host_writes"]
    engine.close()


def test_traffic_metered_per_iteration(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "m"), config=config(num_csds=2))
    engine.train_step(dataset.train_tokens[:4], dataset.train_labels[:4])
    engine.train_step(dataset.train_tokens[:4], dataset.train_labels[:4])
    assert len(engine.meter.iterations) == 2
    first, second = engine.meter.iterations
    assert first.host_total == second.host_total
    engine.close()


@pytest.mark.parametrize("mode, extra", [
    ("baseline", dict(raid_members=2)),
    ("su", dict(num_csds=2, use_transfer_handler=False)),
    ("su_o_c", dict(num_csds=2, compression_ratio=0.05)),
])
def test_traffic_meter_equals_the_device_ledgers(tmp_path, dataset, mode,
                                                 extra):
    """Each step's metered traffic is the per-step delta of the devices'
    own ledgers, to the byte: the baseline's RAID members' I/O counters
    are its host traffic; a CSD's ``host_traffic`` / ``internal_traffic``
    are the smart engine's two links."""
    cls = BaselineOffloadEngine if mode == "baseline" \
        else SmartInfinityEngine
    with cls(make_model(), loss_fn, str(tmp_path),
             config=config(**extra)) as engine:
        def ledgers():
            if mode == "baseline":
                ios = [member.counters for member in engine._members]
                return (sum(io.bytes_read for io in ios),
                        sum(io.bytes_written for io in ios), 0, 0)
            devices = [worker.device for worker in engine._coord._workers]
            return tuple(
                sum(getattr(getattr(device, link), field)
                    for device in devices)
                for link in ("host_traffic", "internal_traffic")
                for field in ("bytes_read", "bytes_written"))

        for _ in range(2):
            before = ledgers()
            traffic = engine.train_step(dataset.train_tokens[:4],
                                        dataset.train_labels[:4]).traffic
            assert (traffic.host_reads, traffic.host_writes,
                    traffic.internal_reads, traffic.internal_writes) == \
                tuple(a - b for a, b in zip(ledgers(), before))


# ----------------------------------------------------------------------
# learning and mixed-precision behaviour
# ----------------------------------------------------------------------
def test_all_engines_learn_the_task(tmp_path, dataset):
    for name, factory in {
        "baseline": lambda d: BaselineOffloadEngine(
            make_model(), loss_fn, d, config=config(raid_members=1)),
        "smart": lambda d: SmartInfinityEngine(
            make_model(), loss_fn, d, config=config(num_csds=2)),
        "smartcomp": lambda d: SmartInfinityEngine(
            make_model(), loss_fn, d, config=config(num_csds=2, compression_ratio=0.3)),
    }.items():
        engine = factory(str(tmp_path / name))
        losses = train(engine, dataset, epochs=4)
        smoothed_first = float(np.mean(losses[:4]))
        smoothed_last = float(np.mean(losses[-4:]))
        assert smoothed_last < smoothed_first, name
        engine.close()


def test_overflow_skips_update_and_halves_scale(tmp_path, dataset):
    cfg = config(initial_loss_scale=2.0 ** 126, num_csds=2)
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "ov"), config=cfg)
    before = engine.space.gather_params().copy()
    result = engine.train_step(dataset.train_tokens[:4],
                               dataset.train_labels[:4])
    assert result.overflow
    assert result.grad_norm == 0.0  # the non-finite norm is not reported
    assert result.step == 0  # skipped
    assert engine.scaler.scale == 2.0 ** 125
    assert engine.scaler.skipped_steps == 1
    np.testing.assert_array_equal(engine.space.gather_params(), before)
    # After the scale backs off far enough, training proceeds.
    for _ in range(30):
        result = engine.train_step(dataset.train_tokens[:4],
                                   dataset.train_labels[:4])
        if not result.overflow:
            break
    assert not result.overflow
    assert engine.step_count == 1
    engine.close()


def _poison_next_gradients(engine):
    """One ``inf`` and one ``nan`` (one per shard) in the next step's
    gradients, after which the engine gathers normally again."""
    gather = engine.space.gather_grads

    def poisoned(*args):
        del engine.space.gather_grads
        flat = gather(*args)
        flat[3], flat[-5] = np.inf, np.nan
        return flat

    engine.space.gather_grads = poisoned


@pytest.mark.parametrize("schedule", ["phased", "interleaved"])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_skipped_step_leaves_error_feedback_alone(tmp_path, dataset,
                                                  backend, schedule):
    """The overflowing step's gradients are offloaded (same host bytes)
    but never reach the error-feedback residual, so training recovers
    exactly as if the step had only backed the loss scale off."""
    cfg = config(num_csds=2, parallel_csds=2, parallel_backend=backend,
                 schedule=schedule, compression_ratio=0.1,
                 error_feedback=True)
    batches = [(dataset.train_tokens[i:i + 8], dataset.train_labels[i:i + 8])
               for i in (0, 8, 16, 24)]
    with create_engine("smart", make_model(), loss_fn,
                       str(tmp_path / "poisoned"), config=cfg) as engine, \
            create_engine("smart", make_model(), loss_fn,
                          str(tmp_path / "clean"), config=cfg) as clean:
        for batch in batches[:2]:
            written = engine.train_step(*batch).traffic.host_writes
            clean.train_step(*batch)
        residual = engine.gather_state_arrays()["ef_residual"]
        assert np.any(residual)

        _poison_next_gradients(engine)
        skipped = engine.train_step(*batches[2])
        assert skipped.overflow and skipped.step == 2
        assert skipped.traffic.host_writes == written
        assert skipped.traffic.host_reads == 0
        np.testing.assert_array_equal(
            engine.gather_state_arrays()["ef_residual"], residual)
        clean.scaler.update(True)  # all the skipped step may change

        for batch in batches[2:] + batches[:2]:
            result, expected = (engine.train_step(*batch),
                                clean.train_step(*batch))
            assert not result.overflow
            assert result.loss == expected.loss
        for name, array in engine.gather_state_arrays().items():
            np.testing.assert_array_equal(
                array, clean.gather_state_arrays()[name], err_msg=name)
        np.testing.assert_array_equal(engine.space.gather_params(),
                                      clean.space.gather_params())


def test_gradient_clipping_bounds_reported_norm(tmp_path, dataset):
    cfg = config()
    engine = BaselineOffloadEngine(make_model(), loss_fn,
                                   str(tmp_path / "clip"), config=cfg)
    result = engine.train_step(dataset.train_tokens[:8],
                               dataset.train_labels[:8])
    assert result.grad_norm > 0
    engine.close()


def test_working_params_are_fp16_quantized(tmp_path, dataset):
    engine = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "fp16"), config=config(num_csds=2))
    engine.train_step(dataset.train_tokens[:4], dataset.train_labels[:4])
    working = engine.space.gather_params()
    # Every working value must be exactly representable in fp16.
    np.testing.assert_array_equal(
        working, working.astype(np.float16).astype(np.float32))
    # But the fp32 masters on storage generally are not fp16 values.
    masters = engine.gather_state_arrays()["master_params"]
    assert not np.array_equal(
        masters, masters.astype(np.float16).astype(np.float32))
    engine.close()


def test_engine_rejects_zero_devices(tmp_path):
    with pytest.raises(TrainingError):
        SmartInfinityEngine(make_model(), loss_fn, str(tmp_path / "z"),
                            config=config(num_csds=0))
    with pytest.raises(TrainingError):
        BaselineOffloadEngine(make_model(), loss_fn, str(tmp_path / "z2"),
                              config=config(raid_members=0))


def test_error_feedback_changes_compressed_training(tmp_path, dataset):
    """With error feedback the trajectory differs from feedback-free
    compression (residuals are replayed)."""
    final = {}
    for flag in (True, False):
        engine = SmartInfinityEngine(
            make_model(), loss_fn, str(tmp_path / f"ef{flag}"),
            config=config(num_csds=2, compression_ratio=0.1, error_feedback=flag))
        train(engine, dataset, epochs=1)
        final[flag] = engine.space.gather_params()
        engine.close()
    assert not np.array_equal(final[True], final[False])


def test_traffic_invariant_to_subgroup_size(tmp_path, dataset):
    """Interconnect bytes are a property of the method, not of the
    subgroup/tasklet granularity."""
    totals = {}
    for size in (1024, 4096, 100_000):
        engine = SmartInfinityEngine(
            make_model(), loss_fn, str(tmp_path / f"sg{size}"),
            config=config(num_csds=2, subgroup_elements=size))
        result = engine.train_step(dataset.train_tokens[:4],
                                   dataset.train_labels[:4])
        totals[size] = (result.traffic.host_reads,
                        result.traffic.host_writes,
                        result.traffic.internal_total)
        engine.close()
    assert len(set(totals.values())) == 1


# ----------------------------------------------------------------------
# the flat-backed working copy survives outside re-binding
# ----------------------------------------------------------------------
def _model_flat(model):
    """Parameters read through the module, never through the space."""
    return np.concatenate([value.reshape(-1)
                           for value in model.state_dict().values()])


def _fp16_masters(engine):
    masters = engine.gather_state_arrays()["master_params"]
    return masters.astype(np.float16).astype(np.float32)


def _engine(mode, directory, seed=7):
    return create_engine(mode, make_model(seed), loss_fn, str(directory),
                         config=config(num_csds=2, raid_members=2))


@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_load_state_dict_between_steps_keeps_updates_visible(
        tmp_path, dataset, mode):
    """``Module.load_state_dict`` re-binds every ``param.data`` away from
    the engine's flat working buffer; the next step must re-adopt them,
    or its installs would land in storage the model no longer reads."""
    batches = [(dataset.train_tokens[i:i + 8], dataset.train_labels[i:i + 8])
               for i in (0, 8, 16)]
    with _engine(mode, tmp_path / "plain") as plain, \
            _engine(mode, tmp_path / "rebound") as rebound:
        for engine in (plain, rebound):
            engine.train_step(*batches[0])
        # Same values, fresh arrays: detaches without changing the run.
        rebound.model.load_state_dict(rebound.model.state_dict())
        for batch in batches[1:]:
            expected = plain.train_step(*batch)
            result = rebound.train_step(*batch)
            assert result.loss == expected.loss
            np.testing.assert_array_equal(_model_flat(rebound.model),
                                          _model_flat(plain.model))
            # The model computes with exactly the FP16 of the masters.
            np.testing.assert_array_equal(_model_flat(rebound.model),
                                          _fp16_masters(rebound))

        # Different values: the step's forward sees them, and the update
        # still replaces them with the FP16 of the updated masters.
        loaded = {name: np.zeros_like(value) for name, value
                  in rebound.model.state_dict().items()}
        rebound.model.load_state_dict(loaded)
        result = rebound.train_step(*batches[0])
        assert result.loss != plain.train_step(*batches[0]).loss
        np.testing.assert_array_equal(_model_flat(rebound.model),
                                      _fp16_masters(rebound))


@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_checkpoint_round_trip_into_a_rebound_model(tmp_path, dataset, mode):
    first = (dataset.train_tokens[:8], dataset.train_labels[:8])
    second = (dataset.train_tokens[8:16], dataset.train_labels[8:16])
    path = str(tmp_path / "state.npz")
    with _engine(mode, tmp_path / "source") as source, \
            _engine(mode, tmp_path / "target", seed=11) as target:
        source.train_step(*first)
        save_checkpoint(source, path)
        target.train_step(*second)  # diverge first
        target.model.load_state_dict(target.model.state_dict())
        load_checkpoint(target, path)
        # Restored weights are what the model reads, straight away.
        np.testing.assert_array_equal(_model_flat(target.model),
                                      _fp16_masters(source))
        expected = source.train_step(*second)
        result = target.train_step(*second)
        assert result.loss == expected.loss
        np.testing.assert_array_equal(_model_flat(target.model),
                                      _model_flat(source.model))
