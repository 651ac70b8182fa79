"""The interleaved execution pipeline: bit-identity, spill, scheduling.

The tentpole claim: ``TrainingConfig.schedule="interleaved"`` changes
*when* each block's offload+update runs (chained per shard, without the
barrier between all offloads and all updates) but never *what* gets
computed — parameters, metered traffic, fault accounting, and
checkpoints are bit-identical to the phased schedule across every
engine, both execution backends, and under chaos.  The activation
spill/prefetch layer carries the same guarantee: float32 boundaries
round-trip the SSD-backed store exactly, so spilled training equals
recompute-mode training bit for bit.  The DES side then quantifies what
the schedule buys: a strictly shorter su_o_c step at >=2 CSDs, with the
critical-path ``interleave()`` projection validating under the 5% gate.
"""

import contextlib
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.api import create_engine
from repro.errors import TrainingError
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.nn import (ActivationSpillStore, SequenceClassifier,
                      activation_spill_scope, active_spill_store,
                      bert_config)
from repro.nn.checkpoint import checkpointed_classifier_loss
from repro.optim import make_optimizer
from repro.runtime import TrainingConfig, distribute_shards
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.engine import (ACTIVATION_MODES, SCHEDULES,
                                  resolve_activation_offload,
                                  resolve_schedule)
from repro.runtime.shardworker import InProcessShardCoordinator
from repro.telemetry.attrib import PHASE_SPAN_NAMES


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def ckpt_loss_fn(model, tokens, labels):
    return checkpointed_classifier_loss(model, tokens, labels)


def make_model(seed=0, dropout=None):
    config = bert_config(vocab_size=32, dim=32, num_layers=2,
                         num_heads=2, max_seq_len=16)
    if dropout is not None:
        from dataclasses import replace
        config = replace(config, dropout=dropout)
    return SequenceClassifier(config, num_classes=2, seed=seed)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 32, size=(4, 16)),
            rng.integers(0, 2, size=4))


def train(mode, tmp_path, tag, steps=3, fn=loss_fn, **config_kwargs):
    """Train and return (params, traffic tuples, fault stats)."""
    tokens, labels = make_batch()
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-2},
        subgroup_elements=4096, **config_kwargs)
    with create_engine(mode, make_model(), fn,
                       str(tmp_path / tag) if mode != "host_offload" else None,
                       config=config) as engine:
        traffic = [engine.train_step(tokens, labels).traffic
                   for _ in range(steps)]
        return (engine.space.gather_params().copy(), traffic,
                engine.fault_stats())


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_schedule_round_trips_through_dict(self):
        config = TrainingConfig(schedule="interleaved",
                                activation_offload="spill")
        clone = TrainingConfig.from_dict(config.to_dict())
        assert clone.schedule == "interleaved"
        assert clone.activation_offload == "spill"

    def test_unknown_schedule_rejected(self):
        with pytest.raises(TrainingError, match="schedule"):
            resolve_schedule(TrainingConfig(schedule="pipelined"))

    def test_unknown_activation_mode_rejected(self):
        # "auto" was a mode once; it is rejected like any unknown one.
        for mode in ("cache", "auto"):
            with pytest.raises(TrainingError, match="activation_offload"):
                resolve_activation_offload(
                    TrainingConfig(activation_offload=mode), True)

    def test_explicit_spill_without_storage_rejected(self):
        spill = TrainingConfig(activation_offload="spill")
        with pytest.raises(TrainingError, match="spill"):
            resolve_activation_offload(spill, False)

    def test_host_engine_rejects_explicit_spill(self):
        with pytest.raises(TrainingError, match="spill"):
            create_engine("host_offload", make_model(), loss_fn, None,
                          config=TrainingConfig(
                              activation_offload="spill"))

    def test_mode_tuples_cover_the_public_surface(self):
        assert SCHEDULES == ("phased", "interleaved")
        assert ACTIVATION_MODES == ("recompute", "spill")


# ----------------------------------------------------------------------
# the one step body: phase spans, and chains that are never abandoned
# ----------------------------------------------------------------------
STEP_ENGINES = {
    "baseline": ("baseline", dict(raid_members=2)),
    "smart-thread": ("smart", dict(num_csds=2, parallel_csds=2,
                                   parallel_backend="thread")),
    "smart-process": ("smart", dict(num_csds=2, parallel_csds=2,
                                    parallel_backend="process")),
    "host": ("host_offload", {}),
}


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("engine_id", sorted(STEP_ENGINES))
def test_step_emits_the_phase_span_sequence(tmp_path, engine_id, schedule):
    """What ``Timeline.from_spans`` reads off a step:
    ``iteration`` contains ``forward_backward``, then ``grad_offload``
    and ``update`` (phased) or one ``interleaved_update``, back to back;
    an overflow step has no ``update``."""
    mode, kwargs = STEP_ENGINES[engine_id]
    config = TrainingConfig(optimizer="adam", subgroup_elements=4096,
                            schedule=schedule, **kwargs)
    tokens, labels = make_batch()
    with telemetry.session() as session, create_engine(
            mode, make_model(), loss_fn,
            None if mode == "host_offload" else str(tmp_path / "e"),
            config=config) as engine:
        assert not engine.train_step(tokens, labels).overflow
        gather = engine.space.gather_grads

        def poisoned(*args):
            flat = gather(*args)
            flat[3] = np.inf
            return flat

        engine.space.gather_grads = poisoned
        assert engine.train_step(tokens, labels).overflow
        spans = list(session.tracer.spans)

    iterations = sorted((s for s in spans if s.name == "iteration"),
                        key=lambda s: s.start)
    phases = sorted((s for s in spans if s.name in PHASE_SPAN_NAMES),
                    key=lambda s: s.start)
    inside = [[p for p in phases if it.start <= p.start and p.end <= it.end]
              for it in iterations]
    assert sum(map(len, inside)) == len(phases)  # none outside a step
    for group in inside:
        assert all(a.end <= b.start for a, b in zip(group, group[1:]))
    tail = (["interleaved_update"] if schedule == "interleaved"
            else ["grad_offload", "update"])
    good, skipped = ([p.name for p in group] for group in inside)
    assert good == ["forward_backward"] + tail
    assert skipped == ["forward_backward"] + tail[:1]
    if schedule == "interleaved":
        assert [g[-1].attrs["proceed"] for g in inside] == [True, False]
    for it, (step, overflow) in zip(iterations, [(1, False), (1, True)]):
        assert it.attrs["schedule"] == schedule
        assert it.attrs["engine"] == mode.split("_")[0]
        assert (it.attrs["step"], it.attrs["overflow"]) == (step, overflow)
    assert telemetry.Timeline.from_spans(spans).attribution().phases == \
        ["forward_backward"] + tail


def test_failed_interleaved_chain_surfaces_after_the_others(tmp_path):
    """One shard's offload+update chain raising must not abandon the
    others mid-write: every other chain has finished (update included)
    by the time the coordinator re-raises."""
    config = TrainingConfig(optimizer="adam", subgroup_elements=512,
                            num_csds=3, schedule="interleaved")
    shards = distribute_shards(3 * 2048, 3)
    masters = np.zeros(3 * 2048, dtype=np.float32)
    finished = []
    release = threading.Event()

    class DiscardingSink:
        def __init__(self, shard):
            pass

        def destination(self, subgroup):
            return contextlib.nullcontext(
                np.empty(subgroup.count, dtype=np.float32))

    coord = InProcessShardCoordinator(
        str(tmp_path), shards, config, make_optimizer("adam"), None,
        masters, 2, DiscardingSink, lambda resp: None)
    try:
        for index, worker in enumerate(coord._workers):
            real = worker.step

            def step(*args, _real=real, _index=index):
                if _index == 0:
                    # Fail only once the other chains are under way.
                    release.wait(5.0)
                    raise ValueError("shard 0 failed")
                resp = _real(*args)
                finished.append(_index)
                release.set()
                return resp

            worker.step = step
        grads = np.ones_like(masters)
        with pytest.raises(ValueError, match="shard 0 failed"):
            coord.step(grads, 1, 1e-3, True)
        assert sorted(finished) == [1, 2]
    finally:
        coord.close()


# ----------------------------------------------------------------------
# bit-identity: interleaved == phased, all engines x backends x chaos
# ----------------------------------------------------------------------
def assert_same_run(a, b):
    params_a, traffic_a, faults_a = a
    params_b, traffic_b, faults_b = b
    np.testing.assert_array_equal(params_a, params_b)
    assert [(t.host_reads, t.host_writes, t.internal_reads,
             t.internal_writes) for t in traffic_a] == \
           [(t.host_reads, t.host_writes, t.internal_reads,
             t.internal_writes) for t in traffic_b]
    for key in ("injected", "retries", "retries_exhausted", "dropouts",
                "demotions", "degraded_steps"):
        assert faults_a[key] == faults_b[key], key


DROPOUT_PLAN = FaultPlan(seed=3, rules=(
    FaultRule(kind="device_dropout", device=1, probability=0.10),
    FaultRule(kind="io_error", probability=0.05),
))

EXHAUSTION_PLAN = FaultPlan(
    seed=5,
    rules=(FaultRule(kind="io_error", device=1, probability=1.0),),
    retry=RetryPolicy(max_attempts=2, base_delay_s=1e-4,
                      max_delay_s=1e-3))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_smart_interleaved_matches_phased_under_dropout(tmp_path,
                                                        backend):
    """Chaos dropout mid-pipeline demotes identically on both
    schedules: fault streams are keyed per device and the per-device
    op order (offload, then update) is schedule-invariant."""
    kwargs = dict(num_csds=2, parallel_csds=2, parallel_backend=backend,
                  compression_ratio=0.05, fault_plan=DROPOUT_PLAN,
                  steps=4)
    phased = train("smart", tmp_path, f"p-{backend}",
                   schedule="phased", **kwargs)
    interleaved = train("smart", tmp_path, f"i-{backend}",
                        schedule="interleaved", **kwargs)
    assert phased[2]["demotions"] == 1  # the plan actually fired
    assert_same_run(phased, interleaved)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_smart_interleaved_matches_phased_under_retry_exhaustion(
        tmp_path, backend):
    """Retry exhaustion (transient faults past the retry budget) is the
    other demotion cause; salvage must be schedule-independent too."""
    kwargs = dict(num_csds=2, parallel_csds=2, parallel_backend=backend,
                  fault_plan=EXHAUSTION_PLAN, steps=3)
    phased = train("smart", tmp_path, f"px-{backend}",
                   schedule="phased", **kwargs)
    interleaved = train("smart", tmp_path, f"ix-{backend}",
                        schedule="interleaved", **kwargs)
    assert phased[2]["retries_exhausted"] >= 1
    assert phased[2]["demotions"] == 1
    assert_same_run(phased, interleaved)


def test_baseline_interleaved_matches_phased(tmp_path):
    kwargs = dict(raid_members=2, steps=3)
    assert_same_run(
        train("baseline", tmp_path, "bp", schedule="phased", **kwargs),
        train("baseline", tmp_path, "bi", schedule="interleaved",
              **kwargs))


@pytest.mark.parametrize("backend", ["thread"])
def test_host_interleaved_matches_phased(tmp_path, backend):
    kwargs = dict(parallel_csds=2, parallel_backend=backend, steps=3)
    assert_same_run(
        train("host_offload", tmp_path, "hp", schedule="phased",
              **kwargs),
        train("host_offload", tmp_path, "hi", schedule="interleaved",
              **kwargs))


def test_checkpoint_round_trip_mid_interleaved_pipeline(tmp_path):
    """Save mid-run under the interleaved schedule (process backend),
    resume under the phased schedule (thread backend): one trajectory.

    The schedule reorders in-step execution only, so a checkpoint taken
    between steps carries no schedule state — any (schedule, backend)
    pair must resume any other's checkpoint exactly.
    """
    tokens, labels = make_batch()

    def build(tag, schedule, backend):
        config = TrainingConfig(
            optimizer="adam", optimizer_kwargs={"lr": 1e-2},
            subgroup_elements=4096, num_csds=2, parallel_csds=2,
            parallel_backend=backend, schedule=schedule)
        return create_engine("smart", make_model(), loss_fn,
                             str(tmp_path / tag), config=config)

    ckpt = str(tmp_path / "mid.npz")
    with build("a", "interleaved", "process") as engine:
        for _ in range(2):
            engine.train_step(tokens, labels)
        save_checkpoint(engine, ckpt)
    with build("b", "phased", "thread") as engine:
        load_checkpoint(engine, ckpt)
        for _ in range(2):
            engine.train_step(tokens, labels)
        resumed = engine.space.gather_params().copy()
    with build("c", "phased", "thread") as engine:
        for _ in range(4):
            engine.train_step(tokens, labels)
        straight = engine.space.gather_params().copy()
    np.testing.assert_array_equal(resumed, straight)


# ----------------------------------------------------------------------
# activation spill
# ----------------------------------------------------------------------
class TestActivationSpill:
    def test_store_round_trips_float32_exactly(self, tmp_path):
        store = ActivationSpillStore(str(tmp_path))
        try:
            rng = np.random.default_rng(0)
            arrays = [rng.standard_normal((2, 5, 8)).astype(np.float32)
                      for _ in range(3)]
            store.begin_step()
            for index, array in enumerate(arrays):
                store.put(index, array)
            store.prefetch(2)
            for index in range(2, -1, -1):
                np.testing.assert_array_equal(store.get(index),
                                              arrays[index])
                store.prefetch(index - 1)
                store.release(index)
            stats = store.stats()
            assert stats["writes"] == 3 and stats["reads"] == 3
            assert stats["spilled_bytes"] == stats["fetched_bytes"] == \
                sum(4 * a.size for a in arrays)
        finally:
            store.close()

    def test_store_rejects_non_float32(self, tmp_path):
        store = ActivationSpillStore(str(tmp_path))
        try:
            with pytest.raises(TrainingError, match="float32"):
                store.put(0, np.zeros(4, dtype=np.float64))
        finally:
            store.close()

    def test_scope_installs_and_restores_active_store(self, tmp_path):
        store = ActivationSpillStore(str(tmp_path))
        try:
            assert active_spill_store() is None
            with activation_spill_scope(store):
                assert active_spill_store() is store
            assert active_spill_store() is None
        finally:
            store.close()

    def test_smart_spill_matches_recompute(self, tmp_path):
        kwargs = dict(num_csds=2, parallel_csds=2, steps=3,
                      fn=ckpt_loss_fn, schedule="interleaved")
        assert_same_run(
            train("smart", tmp_path, "rc", activation_offload="recompute",
                  **kwargs),
            train("smart", tmp_path, "sp", activation_offload="spill",
                  **kwargs))

    def test_baseline_spill_matches_recompute(self, tmp_path):
        kwargs = dict(raid_members=2, steps=2, fn=ckpt_loss_fn)
        assert_same_run(
            train("baseline", tmp_path, "brc",
                  activation_offload="recompute", **kwargs),
            train("baseline", tmp_path, "bsp",
                  activation_offload="spill", **kwargs))


# ----------------------------------------------------------------------
# DES + critical path
# ----------------------------------------------------------------------
class TestSimulatedInterleave:
    @pytest.mark.parametrize("csds", [2, 4])
    def test_interleaved_su_o_c_strictly_faster(self, csds):
        from repro.hw.topology import default_system
        from repro.nn.models import get_model
        from repro.perf.scenarios import simulate_iteration
        from repro.perf.workload import make_workload

        workload = make_workload(get_model("gpt2-1.16b"))
        system = default_system(num_csds=csds)
        phased = simulate_iteration(system, workload, "su_o_c",
                                    schedule="phased")
        interleaved = simulate_iteration(system, workload, "su_o_c",
                                         schedule="interleaved")
        assert interleaved.total < phased.total
        # The schedule hides update time; fw/bw are untouched.
        assert interleaved.forward == phased.forward
        assert interleaved.backward_grad == phased.backward_grad

    def test_interleaved_attribution_tiles_the_step(self):
        from repro.hw.topology import default_system
        from repro.nn.models import get_model
        from repro.perf.scenarios import trace_scenario
        from repro.perf.workload import make_workload
        from repro.telemetry.attrib import attribute_channels

        workload = make_workload(get_model("gpt2-1.16b"))
        system = default_system(num_csds=4)
        trace = trace_scenario(system, workload, "su_o_c",
                               schedule="interleaved")
        # The DES keeps the canonical three phase windows (the gated
        # update work lands inside the update window; the wall-clock
        # engines are the ones that emit an interleaved_update span).
        names = [name for name, _start, _stop in trace.phase_windows]
        assert names == ["forward", "backward_grad", "update"]
        for (_n1, _s1, stop), (_n2, start, _s2) in \
                zip(trace.phase_windows, trace.phase_windows[1:]):
            assert start >= stop  # windows stay disjoint
        # ... so attribution tiles exactly.
        attribution = attribute_channels(
            trace.phase_windows, trace.fabric.all_channels(),
            horizon=trace.breakdown.total)
        assert attribution.conservation_error() <= \
            1e-9 * trace.breakdown.total
        # Channel occupancy stays physical (no channel busier than the
        # step) even with the update traffic overlapped into backward.
        for usage in attribution.usage.values():
            assert 0.0 <= usage.busy_seconds <= \
                trace.breakdown.total * (1 + 1e-9)
            assert usage.utilization <= 1 + 1e-9

    def test_interleave_projection_validates_under_gate(self):
        from repro.perf.analysis import (observe, resolve,
                                         validate_interleave)

        validation = validate_interleave(
            observe(*resolve("gpt2-1.16b", 4), "su_o_c"))
        assert validation.error < 0.05
