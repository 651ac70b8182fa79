"""Chaos tests: fault injection, retry/backoff, graceful degradation.

The resilience claims these pin down:

* transient chaos (I/O errors, kernel stalls, latency spikes) is fully
  absorbed by retry-with-backoff — training output stays bit-identical
  to the fault-free run, with a nonzero retry count proving the plan
  actually fired;
* a permanent CSD dropout demotes that shard to the host-CPU update
  path and training still finishes bit-identically (the engine's
  degradation ladder, not just error propagation);
* RAID0 goes fail-stop degraded on a member failure, with a recovery
  story in the error;
* :func:`repro.api.create_engine` builds the same engines the deprecated
  per-class constructors do.
"""

import sys
import threading

import numpy as np
import pytest

from repro.api import ENGINE_MODES, create_engine
from repro.errors import (DeviceFailedError, FaultInjectionError,
                          RetryExhaustedError, TrainingError)
from repro.faults import (FaultInjector, FaultLedger, FaultPlan, FaultRule,
                          RetryPolicy)
from repro.faults.plan import summarize
from repro.nn import SequenceClassifier, bert_config, \
    make_classification_dataset
from repro.runtime import (BaselineOffloadEngine, HostOffloadEngine,
                           SmartInfinityEngine, TrainingConfig,
                           load_checkpoint, save_checkpoint)
from repro.storage.blockdev import FileBlockDevice
from repro.storage.raid0 import RAID0Volume

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


def quiet(engine):
    """Replace the injector's clock so chaos tests don't really sleep."""
    if getattr(engine, "faults", None) is not None:
        engine.faults._sleep = lambda seconds: None
    return engine


# ----------------------------------------------------------------------
# FaultPlan / FaultRule plumbing
# ----------------------------------------------------------------------
def test_fault_plan_round_trips_through_json(tmp_path):
    plan = FaultPlan(
        seed=13,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        rules=(FaultRule(kind="io_error", probability=0.1),
               FaultRule(kind="latency", device=2, op="read",
                         probability=0.5, latency_s=0.001),
               FaultRule(kind="device_dropout", device=1, at_op=40)))
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    path = str(tmp_path / "plan.json")
    plan.to_json_file(path)
    assert FaultPlan.from_json_file(path) == plan


def test_fault_plan_rejects_unknown_keys():
    with pytest.raises(TrainingError, match="unknown fault-plan keys"):
        FaultPlan.from_dict({"sedd": 1})
    with pytest.raises(TrainingError, match="unknown fault-rule keys"):
        FaultRule.from_dict({"kind": "io_error", "probability": 0.1,
                             "devcie": 0})


def test_fault_rule_validation():
    with pytest.raises(TrainingError, match="unknown fault kind"):
        FaultRule(kind="gamma_ray", probability=0.1)
    with pytest.raises(TrainingError, match="inert fault rule"):
        FaultRule(kind="io_error")
    with pytest.raises(TrainingError, match="latency_s > 0"):
        FaultRule(kind="latency", probability=0.1)
    with pytest.raises(TrainingError, match="max_attempts"):
        RetryPolicy(max_attempts=0)


def test_training_config_round_trips_fault_and_fleet_fields():
    cfg = config(num_csds=3, raid_members=2, raid_chunk_bytes=1 << 16,
                 fault_plan=FaultPlan.default_chaos(seed=5))
    assert TrainingConfig.from_dict(cfg.to_dict()) == cfg


def test_training_config_from_dict_suggests_close_match():
    with pytest.raises(TrainingError,
                       match="did you mean 'compression_ratio'"):
        TrainingConfig.from_dict({"compresion_ratio": 0.1})


# ----------------------------------------------------------------------
# injector unit behaviour (fake clock)
# ----------------------------------------------------------------------
def test_backoff_delays_follow_the_policy():
    plan = FaultPlan(
        rules=(FaultRule(kind="io_error", probability=1.0, count=3),),
        retry=RetryPolicy(max_attempts=5, base_delay_s=0.01,
                          multiplier=2.0, max_delay_s=0.03))
    slept = []
    injector = FaultInjector(plan, sleep=slept.append)
    injector.guard(0, "write")           # 3 faults, then success
    assert slept == [0.01, 0.02, 0.03]   # exponential, capped at max
    stats = summarize(injector.ledger.series())
    assert stats["retries"] == 3
    assert stats["injected"] == {"io_error": 3}
    assert stats["backoff_seconds"] == pytest.approx(0.06)


def test_retry_exhaustion_raises_with_attempt_count():
    plan = FaultPlan(
        rules=(FaultRule(kind="io_error", probability=1.0),),
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.001))
    injector = FaultInjector(plan, sleep=lambda s: None)
    with pytest.raises(RetryExhaustedError) as excinfo:
        injector.guard(0, "write")
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.last_fault, FaultInjectionError)
    assert summarize(injector.ledger.series())["retries_exhausted"] == 1


def test_device_dropout_is_permanent_and_never_retried():
    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=0, at_op=1),))
    slept = []
    injector = FaultInjector(plan, sleep=slept.append)
    with pytest.raises(DeviceFailedError):
        injector.guard(0, "write")
    assert slept == []                     # permanent => no backoff
    with pytest.raises(DeviceFailedError):
        injector.guard(0, "read")          # stays dead forever
    assert injector.is_dead(0)
    injector.guard(1, "write")             # other devices unaffected


def test_maintenance_bypass_suspends_injection():
    plan = FaultPlan(rules=(FaultRule(kind="io_error", probability=1.0),))
    injector = FaultInjector(plan, sleep=lambda s: None)
    with injector.maintenance():
        injector.guard(0, "write")         # would otherwise exhaust
    assert summarize(injector.ledger.series())["injected"] == {}


def test_latency_spike_sleeps_and_continues():
    plan = FaultPlan(
        rules=(FaultRule(kind="latency", probability=1.0, count=2,
                         latency_s=0.004),))
    slept = []
    injector = FaultInjector(plan, sleep=slept.append)
    injector.guard(0, "read")
    injector.guard(0, "read")
    assert slept == [0.004, 0.004]
    stats = summarize(injector.ledger.series())
    assert stats["latency_seconds"] == pytest.approx(0.008)
    assert stats["retries"] == 0           # spikes are not errors


def test_fault_ledger_concurrent_hammer():
    """Every worker thread counts into its engine's one ledger (faults on
    its device, a demotion and its alert): the ledger's lock must lose no
    update, or ``fault_stats()`` and the registry come up short."""
    ledger = FaultLedger()
    threads_n, adds = 8, 2000

    def hammer(device):
        for _ in range(adds):
            ledger.add("faults_retries_total", device=device % 2, op="read")
            ledger.add("faults_backoff_seconds_total", 0.5,
                       device=device % 2, op="read")

    threads = [threading.Thread(target=hammer, args=(device,))
               for device in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    stats = summarize(ledger.series())
    assert stats["retries"] == threads_n * adds
    assert stats["backoff_seconds"] == 0.5 * threads_n * adds


def test_fault_streams_are_deterministic_per_device():
    plan = FaultPlan(seed=3, rules=(
        FaultRule(kind="io_error", probability=0.3),))

    def fire_pattern():
        injector = FaultInjector(plan, sleep=lambda s: None)
        pattern = []
        for _ in range(50):
            try:
                injector.check(0, "write")
                pattern.append(False)
            except FaultInjectionError:
                pattern.append(True)
        return pattern

    assert fire_pattern() == fire_pattern()
    assert any(fire_pattern())


# ----------------------------------------------------------------------
# RAID0 degraded mode
# ----------------------------------------------------------------------
def test_raid0_goes_fail_stop_degraded_on_member_failure(tmp_path):
    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=1, at_op=1),))
    injector = FaultInjector(plan, sleep=lambda s: None)
    members = [FileBlockDevice(str(tmp_path / f"ssd{i}.img"), 1 << 16,
                               name=f"ssd{i}", fault_site=injector.site(i))
               for i in range(3)]
    volume = RAID0Volume(members, chunk_bytes=16)
    assert not volume.degraded
    with pytest.raises(DeviceFailedError):
        volume.pwrite(0, b"x" * 48)        # stripes across member 1
    assert volume.degraded
    assert volume.failed_members == (1,)
    # Fail-stop: every later op names the failure and the recovery story.
    with pytest.raises(DeviceFailedError, match="checkpoint"):
        volume.pread_into(0, bytearray(16))
    with pytest.raises(DeviceFailedError):
        volume.pwrite(0, b"y" * 8)
    volume.close()


def test_baseline_engine_surfaces_raid_member_failure(tmp_path, dataset):
    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=0, at_op=5),))
    engine = quiet(BaselineOffloadEngine(
        make_model(), loss_fn, str(tmp_path),
        config=config(raid_members=2, fault_plan=plan)))
    with pytest.raises(DeviceFailedError):
        train(engine, dataset)
    assert engine.volume.degraded
    engine.close()
    engine.close()                         # idempotent after failure too


# ----------------------------------------------------------------------
# engine-level chaos properties
# ----------------------------------------------------------------------
def test_transient_chaos_is_bit_identical_to_fault_free(tmp_path, dataset):
    clean = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "clean"),
                                config=config(num_csds=3))
    clean_losses = train(clean, dataset)
    clean_params = clean.space.gather_params()
    clean.close()

    plan = FaultPlan.default_chaos(seed=11, probability=0.05)
    chaos = quiet(SmartInfinityEngine(
        make_model(), loss_fn, str(tmp_path / "chaos"),
        config=config(num_csds=3, fault_plan=plan)))
    chaos_losses = train(chaos, dataset)
    chaos_params = chaos.space.gather_params()
    stats = chaos.fault_stats()
    chaos.close()

    assert sum(stats["injected"].values()) > 0, "plan never fired"
    assert stats["retries"] > 0
    assert stats["demotions"] == 0         # transient-only plan
    assert chaos_losses == clean_losses
    np.testing.assert_array_equal(chaos_params, clean_params)


@pytest.mark.parametrize("variant", [
    {},
    {"compression_ratio": 0.2},
    {"use_transfer_handler": False},
], ids=["dense", "smartcomp", "naive"])
def test_dropout_demotes_shard_and_stays_bit_identical(tmp_path, dataset,
                                                       variant):
    clean = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "clean"),
                                config=config(num_csds=3, **variant))
    clean_losses = train(clean, dataset)
    clean_params = clean.space.gather_params()
    clean.close()

    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=1, at_op=40),))
    chaos = quiet(SmartInfinityEngine(
        make_model(), loss_fn, str(tmp_path / "chaos"),
        config=config(num_csds=3, fault_plan=plan, **variant)))
    chaos_losses = train(chaos, dataset)
    chaos_params = chaos.space.gather_params()
    stats = chaos.fault_stats()
    chaos.close()

    assert [d for d, _ in chaos.demotions] == [1]
    assert stats["demotions"] == 1
    assert stats["degraded_steps"] > 0
    assert chaos_losses == clean_losses
    np.testing.assert_array_equal(chaos_params, clean_params)


def test_checkpoint_round_trip_after_demotion(tmp_path, dataset):
    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=0, at_op=40),))
    chaos = quiet(SmartInfinityEngine(
        make_model(), loss_fn, str(tmp_path / "chaos"),
        config=config(num_csds=2, fault_plan=plan)))
    train(chaos, dataset)
    assert chaos.demotions
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(chaos, path)           # gathers demoted host shard
    chaos_params = chaos.space.gather_params()
    chaos.close()

    restored = SmartInfinityEngine(make_model(seed=9), loss_fn,
                                   str(tmp_path / "restored"),
                                   config=config(num_csds=2))
    load_checkpoint(restored, path)
    np.testing.assert_array_equal(restored.space.gather_params(),
                                  chaos_params)
    restored.close()


# ----------------------------------------------------------------------
# create_engine
# ----------------------------------------------------------------------
def test_create_engine_matches_direct_construction(tmp_path, dataset):
    factory = create_engine("smart", make_model(), loss_fn,
                            str(tmp_path / "factory"),
                            config=config(num_csds=3))
    factory_losses = train(factory, dataset)
    factory_params = factory.space.gather_params()
    factory.close()

    direct = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "direct"),
                                 config=config(num_csds=3))
    direct_losses = train(direct, dataset)
    direct_params = direct.space.gather_params()
    direct.close()

    assert factory_losses == direct_losses
    np.testing.assert_array_equal(factory_params, direct_params)


def test_removed_ctor_kwargs_raise_type_error(tmp_path):
    """The old fleet-geometry kwargs are gone from the signatures: fleet
    geometry is a TrainingConfig field (docs/API.md)."""
    with pytest.raises(TypeError, match="num_csds"):
        SmartInfinityEngine(make_model(), loss_fn,
                            str(tmp_path / "legacy"),
                            num_csds=3, config=config())
    with pytest.raises(TypeError, match="num_ssds"):
        BaselineOffloadEngine(make_model(), loss_fn,
                              str(tmp_path / "legacy-b"),
                              num_ssds=2, config=config())
    with pytest.raises(TypeError, match="host_memory_bytes"):
        HostOffloadEngine(make_model(), loss_fn,
                          host_memory_bytes=1 << 30)


def test_create_engine_builds_every_mode(tmp_path):
    for mode in ENGINE_MODES:
        engine = create_engine(mode, make_model(), loss_fn,
                               str(tmp_path / mode), config=config())
        assert engine.num_params > 0
        engine.close()
        engine.close()                     # close() is idempotent


def test_create_engine_validates_inputs(tmp_path):
    with pytest.raises(TrainingError, match="unknown engine mode"):
        create_engine("turbo", make_model(), loss_fn, str(tmp_path))
    with pytest.raises(TrainingError, match="storage_dir"):
        create_engine("smart", make_model(), loss_fn)
    # host_offload has no storage, so no storage_dir is required.
    engine = create_engine("host_offload", make_model(), loss_fn)
    engine.close()


# ----------------------------------------------------------------------
# partial-construction cleanup
# ----------------------------------------------------------------------
def test_baseline_partial_construction_releases_members(tmp_path,
                                                        monkeypatch):
    from repro.runtime import engine as engine_mod

    opened = []
    real = engine_mod.FileBlockDevice

    class Tracking(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    def boom(self, *args, **kwargs):
        raise RuntimeError("placement failed")

    monkeypatch.setattr(engine_mod, "FileBlockDevice", Tracking)
    monkeypatch.setattr(engine_mod.TensorStore, "write_array", boom)
    threads_before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="placement failed"):
        BaselineOffloadEngine(make_model(), loss_fn, str(tmp_path),
                              config=config(raid_members=3))
    assert len(opened) == 3
    assert all(member.closed for member in opened)
    assert not [thread for thread in threading.enumerate()
                if thread.name == "raid0-io"
                and thread not in threads_before]


def test_smart_partial_construction_releases_devices(tmp_path,
                                                     monkeypatch):
    from repro.csd import device as device_mod

    opened = []
    real = device_mod.FileBlockDevice

    class Tracking(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    def boom(self, *args, **kwargs):
        raise RuntimeError("placement failed")

    monkeypatch.setattr(device_mod, "FileBlockDevice", Tracking)
    monkeypatch.setattr(device_mod.TensorStore, "write_array", boom)
    with pytest.raises(RuntimeError, match="placement failed"):
        SmartInfinityEngine(make_model(), loss_fn, str(tmp_path),
                            config=config(num_csds=2))
    assert opened
    assert all(device.closed for device in opened)
