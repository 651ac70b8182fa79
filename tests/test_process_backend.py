"""The process execution backend: pools, shared memory, bit-identity.

The tentpole claim: running each CSD's shard work in its own OS process
over ``multiprocessing.shared_memory`` shards is observationally
identical to the thread pool — same parameters bit-for-bit, same
metered traffic, same fault accounting and incident trail, same
checkpoints — while the task pipes never carry a tensor.  These tests
pin each piece: pool lifecycle (double close, failing tasks, crashed
workers), the shared-memory primitives, backend resolution, and
thread-vs-process engine parity including chaos demotions.
"""

import os

import numpy as np
import pytest

from repro.api import create_engine
from repro.compression.topk import keep_count
from repro.errors import FaultError, TrainingError, WorkerCrashError
from repro.faults import FaultPlan, FaultRule
from repro.memory import SharedMemoryArena, SharedSegment
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import (CSDWorkerPool, ProcessCSDWorkerPool,
                           TrainingConfig, distribute_shards)
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.parallel import resolve_backend


# Pool task functions must be module-level so they pickle by reference.

def _square(value):
    return value * value


def _boom(value):
    if value == 2:
        raise ValueError(f"task {value} failed")
    return value


def _die(value):
    os._exit(13)


def _pid(_value):
    return os.getpid()


def _return_array(_value):
    return {"data": np.zeros(4)}


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=0):
    return SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=2, seed=seed)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 32, size=(4, 16)),
            rng.integers(0, 2, size=4))


def train_smart(tmp_path, tag, backend, steps=3, **config_kwargs):
    tokens, labels = make_batch()
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-3},
        subgroup_elements=4096, parallel_csds=2, num_csds=2,
        parallel_backend=backend, **config_kwargs)
    with create_engine("smart", make_model(), loss_fn,
                       str(tmp_path / tag), config=config) as engine:
        traffic = []
        for _ in range(steps):
            result = engine.train_step(tokens, labels)
            traffic.append(result.traffic)
        return (engine.space.gather_params().copy(),
                engine.fault_stats(), traffic)


class TestProcessPoolLifecycle:
    def test_results_in_submission_order(self):
        with ProcessCSDWorkerPool(2) as pool:
            assert pool.map_ordered(_square, range(7)) == \
                [n * n for n in range(7)]

    def test_sticky_routing_pins_items_to_workers(self):
        # Item j runs on worker j % workers — per-device state built by
        # an init task stays with the process that owns the device.
        with ProcessCSDWorkerPool(2) as pool:
            first = pool.map_ordered(_pid, range(4))
            second = pool.map_ordered(_pid, range(4))
        assert first == second
        assert first[0] == first[2] and first[1] == first[3]
        assert first[0] != first[1]

    def test_double_close_is_idempotent(self):
        pool = ProcessCSDWorkerPool(2)
        pool.close()
        pool.close()
        with pytest.raises(TrainingError, match="closed"):
            pool.map_ordered(_square, [1])

    def test_task_exception_reraised_and_pool_reusable(self):
        with ProcessCSDWorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 2 failed"):
                pool.map_ordered(_boom, range(4))
            # The failing task did not kill its worker: the pool keeps
            # serving with the same processes.
            assert pool.map_ordered(_square, range(4)) == [0, 1, 4, 9]

    def test_worker_crash_raises_fault_error_not_hang(self):
        with ProcessCSDWorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map_ordered(_die, range(2))
            assert isinstance(excinfo.value, FaultError)
            assert excinfo.value.worker in (0, 1)
            assert "exit code" in str(excinfo.value)

    def test_ndarray_task_payload_rejected(self):
        with ProcessCSDWorkerPool(1) as pool:
            with pytest.raises(TrainingError, match="shared memory"):
                pool.map_ordered(_square, [{"grads": np.ones(8)}])

    def test_ndarray_task_result_rejected(self):
        with ProcessCSDWorkerPool(1) as pool:
            with pytest.raises(TrainingError, match="shared memory"):
                pool.map_ordered(_return_array, [0])


class TestThreadPoolLifecycle:
    def test_double_close_is_idempotent(self):
        pool = CSDWorkerPool(2)
        pool.close()
        pool.close()
        with pytest.raises(TrainingError, match="closed"):
            pool.map_ordered(_square, [1])

    def test_task_exception_reraised_and_pool_reusable(self):
        with CSDWorkerPool(2) as pool:
            with pytest.raises(ValueError, match="task 2 failed"):
                pool.map_ordered(_boom, range(4))
            assert pool.map_ordered(_square, range(4)) == [0, 1, 4, 9]


class TestSharedMemory:
    def test_segment_descriptor_attach_round_trip(self):
        segment = SharedSegment(4096)
        try:
            view = segment.view(0, 16, np.dtype("f4"))
            view[:] = np.arange(16, dtype=np.float32)
            other = SharedSegment.attach(segment.descriptor())
            try:
                mirror = other.view(0, 16, np.dtype("f4"))
                np.testing.assert_array_equal(
                    mirror, np.arange(16, dtype=np.float32))
                mirror[3] = 99.0
                assert view[3] == 99.0  # same physical bytes
            finally:
                other.close()
        finally:
            segment.close()

    def test_arena_views_are_disjoint_and_addressable(self):
        arena = SharedMemoryArena(1 << 16, name="test-arena")
        try:
            a = arena.acquire(100)
            b = arena.acquire(200)
            a[:] = 1.0
            b[:] = 2.0
            assert np.all(a == 1.0) and np.all(b == 2.0)
            # offset_of round-trips through the raw segment.
            off = arena.offset_of(b)
            mirror = arena.segment.view(off, 200, b.dtype)
            np.testing.assert_array_equal(mirror, b)
        finally:
            arena.close()


class TestResolveBackend:
    def test_explicit_backends_honoured(self):
        assert resolve_backend("thread", 4) == "thread"
        assert resolve_backend("process", 4) == "process"

    def test_auto_sequential_stays_thread(self):
        # One worker can never benefit from a process hop.
        assert resolve_backend("auto", 1) == "thread"

    def test_auto_matches_cpu_budget(self):
        from repro.runtime.parallel import usable_cpus
        expected = "process" if usable_cpus() > 1 else "thread"
        assert resolve_backend("auto", 4) == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(TrainingError, match="unknown parallel "
                                                "backend"):
            resolve_backend("greenlet", 2)

    def test_config_validates_backend_at_engine_build(self, tmp_path):
        config = TrainingConfig(parallel_backend="greenlet")
        with pytest.raises(TrainingError, match="unknown parallel "
                                                "backend"):
            create_engine("baseline", make_model(), loss_fn,
                          str(tmp_path / "bad"), config=config)


@pytest.mark.parametrize("config_kwargs", [
    {},
    {"compression_ratio": 0.05},
    {"compression_ratio": 0.05, "quantized_upstream": True},
    {"use_transfer_handler": False},
    {"pruning_sparsity": 0.3},
], ids=["dense", "smartcomp", "smartcomp+quant", "naive", "pruned"])
def test_process_backend_bitwise_identical(tmp_path, config_kwargs):
    thread_params, _, thread_traffic = train_smart(
        tmp_path, "thread", "thread", **config_kwargs)
    proc_params, _, proc_traffic = train_smart(
        tmp_path, "process", "process", **config_kwargs)
    np.testing.assert_array_equal(thread_params, proc_params)
    assert thread_traffic == proc_traffic


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_closed_engine_is_freed_by_refcount_alone(tmp_path, backend):
    """The coordinator holds the engine's bound methods (install,
    demotion); ``close()`` must drop them, or a dropped engine waits for
    the cycle collector with its flat buffers and arenas."""
    import gc
    import weakref

    tokens, labels = make_batch()
    config = TrainingConfig(
        optimizer="adam", subgroup_elements=4096, parallel_csds=2,
        num_csds=2, parallel_backend=backend, compression_ratio=0.02)
    gc.collect()
    gc.disable()
    try:
        with create_engine("smart", make_model(), loss_fn,
                           str(tmp_path), config=config) as engine:
            engine.train_step(tokens, labels)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("schedule", ["phased", "interleaved"])
@pytest.mark.parametrize("rules, config_kwargs", [
    ((FaultRule(kind="device_dropout", device=1, probability=0.10),
      FaultRule(kind="io_error", probability=0.05)), {}),
    # Op 55 of device 1 is a state write-back of step 2's second
    # subgroup on the naive loop: parameters committed, states not.
    ((FaultRule(kind="device_dropout", device=1, at_op=55),),
     {"use_transfer_handler": False}),
], ids=["probabilistic", "mid-update-naive"])
def test_process_backend_chaos_dropout_parity(tmp_path, schedule, rules,
                                              config_kwargs):
    """A dead CSD demotes to the host path identically in both backends.

    The dropout fires in a worker process, whose shard is salvaged over
    shared memory into the parent's host path; parameters, fault
    accounting (injections, retries, demotions, degraded steps) and
    traffic must all match the thread run exactly, on both schedules.
    """
    plan = FaultPlan(seed=3, rules=rules)
    thread_params, thread_faults, thread_traffic = train_smart(
        tmp_path, "thread", "thread", steps=4, fault_plan=plan,
        schedule=schedule, **config_kwargs)
    proc_params, proc_faults, proc_traffic = train_smart(
        tmp_path, "process", "process", steps=4, fault_plan=plan,
        schedule=schedule, **config_kwargs)
    assert thread_faults["demotions"] == 1  # the plan actually fired
    np.testing.assert_array_equal(thread_params, proc_params)
    assert thread_traffic == proc_traffic
    assert thread_faults == proc_faults
    if "use_transfer_handler" in config_kwargs:
        # Step 2's pass was cut short mid-way: its internal reads lie
        # strictly between a one-device step's and a two-device step's.
        reads = [step.internal_reads for step in thread_traffic]
        assert reads[3] < reads[1] < reads[0]


def test_dropout_between_compressed_writes_counts_the_bytes_that_landed(
        tmp_path):
    """Device 0 drops out at the second write of its first compressed
    offload: the indices reached it, the values did not.  A step's
    traffic is its devices' ledger delta, so that step counts the index
    bytes — on both backends alike — and from then on only device 1."""
    plan = FaultPlan(rules=(
        FaultRule(kind="device_dropout", device=0, at_op=2),))
    runs = {backend: train_smart(tmp_path, backend, backend, steps=2,
                                 fault_plan=plan, compression_ratio=0.05)
            for backend in ("thread", "process")}
    params, faults, traffic = runs["thread"]
    assert faults["demotions"] == 1
    assert runs["process"][2] == traffic
    shards = distribute_shards(params.size, 2)
    kept = [keep_count(shard.count, 0.05) for shard in shards]
    assert [(step.host_writes, step.host_reads) for step in traffic] == [
        (4 * kept[0] + 8 * kept[1], 4 * shards[1].count),
        (8 * kept[1], 4 * shards[1].count)]


def test_checkpoint_round_trip_across_backends(tmp_path):
    """Save under threads, resume under processes: one trajectory.

    The process engine gathers/scatters shard state through its
    shared-memory channels, so the resulting checkpoint — and the
    training that resumes from it — must be indistinguishable from the
    thread engine's.
    """
    tokens, labels = make_batch()

    def build(tag, backend):
        config = TrainingConfig(
            optimizer="adam", optimizer_kwargs={"lr": 1e-3},
            subgroup_elements=4096, parallel_csds=2, num_csds=2,
            parallel_backend=backend, compression_ratio=0.05,
            error_feedback=True)
        return create_engine("smart", make_model(), loss_fn,
                             str(tmp_path / tag), config=config)

    ckpt = str(tmp_path / "ckpt.npz")
    with build("a", "thread") as engine:
        engine.train_step(tokens, labels)
        engine.train_step(tokens, labels)
        save_checkpoint(engine, ckpt)
    with build("b", "process") as engine:
        load_checkpoint(engine, ckpt)
        engine.train_step(tokens, labels)
        resumed = engine.space.gather_params().copy()
    with build("c", "thread") as engine:
        for _ in range(3):
            engine.train_step(tokens, labels)
        straight = engine.space.gather_params().copy()
    np.testing.assert_array_equal(resumed, straight)


def test_child_telemetry_forwarded_to_parent_session(tmp_path):
    """Worker-process spans land in the parent.

    The per-device work happens in other processes, but the observability
    contract is unchanged: the parent session's tracer carries the
    children's device-update spans, and the engine's flight record holds
    the step.
    """
    from repro import telemetry

    tokens, labels = make_batch()
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-3},
        subgroup_elements=4096, parallel_csds=2, num_csds=2,
        parallel_backend="process", flight_recorder=True)
    with telemetry.session() as session:
        with create_engine("smart", make_model(), loss_fn,
                           str(tmp_path / "t"), config=config) as engine:
            engine.train_step(tokens, labels)
            flight_stats = engine.health_summary().get("flight")
    names = {span.name for span in session.tracer.spans}
    assert {"offload_device", "device_update", "iteration"} <= names
    # Child spans are rebased into the parent's epoch: every span must
    # sit inside this session, not at a fork-inherited origin.
    assert all(span.start >= 0 for span in session.tracer.spans)
    assert flight_stats is not None
    assert flight_stats["steps_retained"] == 1


def test_child_span_is_one_record_forwarded_once(tmp_path, monkeypatch):
    """A child span crosses the pipe once and is one object in the
    parent session: every response carries at most a ``spans`` list (no
    other telemetry), and the step's flight record refers to the very
    span objects the session holds."""
    from repro import telemetry
    from repro.runtime.procworker import ProcessShardCoordinator

    carried = []
    ingest = ProcessShardCoordinator._ingest

    def spy(self, resp):
        carried.append((set(resp) & {"telemetry", "events", "spans"},
                        [id(span) for span in resp.get("spans", ())]))
        ingest(self, resp)

    monkeypatch.setattr(ProcessShardCoordinator, "_ingest", spy)
    tokens, labels = make_batch()
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-3},
        subgroup_elements=4096, parallel_csds=2, num_csds=2,
        parallel_backend="process", flight_recorder=True)
    with telemetry.session() as session:
        with create_engine("smart", make_model(), loss_fn,
                           str(tmp_path / "t"), config=config) as engine:
            engine.train_step(tokens, labels)
            (record,) = engine.flight.records
            spans = session.tracer.spans
    assert any(keys == {"spans"} for keys, _ in carried)
    assert all(keys <= {"spans"} for keys, _ in carried)
    shipped = [span_id for _, ids in carried for span_id in ids]
    assert len(shipped) == len(set(shipped))
    shipped = set(shipped)
    # Each shipped span is adopted once: it is in the session exactly
    # once, and the record refers to the session's objects, not copies.
    assert len({id(span) for span in spans}) == len(spans)
    assert shipped <= {id(span) for span in spans}
    assert [id(span) for span in record.spans] == [
        id(span) for span in spans]
    forwarded = [span for span in record.spans if id(span) in shipped]
    assert {"offload_device", "device_update"} <= {
        span.name for span in forwarded}
    assert all(span.end >= span.start >= 0.0 for span in forwarded)
