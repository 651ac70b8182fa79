"""Concurrent multi-CSD execution: worker pool, thread safety, caching.

The tentpole claim is Fig. 11's: per-CSD update passes are independent,
so fanning them across a thread pool changes wall-clock only — never the
trained parameters or the metered traffic.  These tests pin down each
piece of that argument:

* ``resolve_workers`` / ``CSDWorkerPool`` semantics (auto sizing,
  ordering, error propagation, inline degeneration at ``workers=1``);
* a device's ``IOCounters`` ledger survives a concurrent hammer without
  losing updates;
* parallel == sequential bit-identical parameters *and* byte-identical
  traffic for SmartUpdate and SmartComp (SU+O+C);
* the SmartComp compressed-stream cache reads each device's stream over
  the internal path once per update pass (closed-form assertion);
* telemetry spans from a parallel update carry distinct worker-thread
  identities, which is what makes Chrome traces show per-device lanes.
"""

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.compression.topk import keep_count
from repro.errors import TrainingError
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import (CSDWorkerPool, SmartInfinityEngine,
                           TrainingConfig, resolve_workers)
from repro.storage import IOCounters


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=0, dim=32, num_layers=1):
    return SequenceClassifier(
        bert_config(vocab_size=32, dim=dim, num_layers=num_layers,
                    num_heads=2, max_seq_len=8),
        num_classes=2, seed=seed)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 32, size=(4, 8)),
            rng.integers(0, 2, size=4))


# ----------------------------------------------------------------------
# resolve_workers
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_auto_caps_at_num_tasks(self):
        assert resolve_workers(None, 1) == 1
        assert resolve_workers(0, 1) == 1

    def test_auto_never_exceeds_cpu_count(self):
        import os
        cpus = os.cpu_count() or 1
        assert resolve_workers(None, 1024) == min(1024, cpus)

    def test_explicit_honoured_beyond_cpu_count(self):
        # Tests force thread pools on 1-core machines this way.
        assert resolve_workers(4, 8) == 4

    def test_explicit_capped_at_num_tasks(self):
        assert resolve_workers(16, 3) == 3

    def test_negative_rejected(self):
        with pytest.raises(TrainingError):
            resolve_workers(-1, 4)

    def test_zero_tasks_rejected(self):
        with pytest.raises(TrainingError):
            resolve_workers(None, 0)


# ----------------------------------------------------------------------
# CSDWorkerPool
# ----------------------------------------------------------------------
class TestCSDWorkerPool:
    def test_single_worker_is_inline(self):
        pool = CSDWorkerPool(1)
        assert not pool.is_parallel
        thread_names = []
        pool.map_ordered(
            lambda _: thread_names.append(threading.current_thread().name),
            range(3))
        assert thread_names == [threading.current_thread().name] * 3
        pool.close()

    def test_results_in_submission_order(self):
        import time
        with CSDWorkerPool(4) as pool:
            assert pool.is_parallel

            def staggered(index):
                # Later submissions finish earlier; order must hold.
                time.sleep(0.01 * (4 - index))
                return index * 10

            assert pool.map_ordered(staggered, range(4)) == [0, 10, 20, 30]

    def test_uses_multiple_threads(self):
        barrier = threading.Barrier(3, timeout=10)
        seen = set()

        def rendezvous(_):
            # All three tasks must be in flight at once to pass the
            # barrier — proof of genuine thread-level parallelism.
            barrier.wait()
            seen.add(threading.current_thread().name)

        with CSDWorkerPool(3) as pool:
            pool.map_ordered(rendezvous, range(3))
        assert len(seen) == 3
        assert all(name.startswith("csd-worker") for name in seen)

    def test_error_propagates_after_all_tasks_finish(self):
        finished = []

        def work(index):
            if index == 1:
                raise ValueError("device 1 exploded")
            finished.append(index)

        with CSDWorkerPool(2) as pool:
            with pytest.raises(ValueError, match="device 1 exploded"):
                pool.map_ordered(work, range(4))
        # No task was abandoned mid-flight: the others all completed.
        assert sorted(finished) == [0, 2, 3]

    def test_closed_pool_rejects_work(self):
        pool = CSDWorkerPool(2)
        pool.close()
        with pytest.raises(TrainingError):
            pool.map_ordered(lambda x: x, range(2))
        pool.close()  # idempotent

    def test_rejects_zero_workers(self):
        with pytest.raises(TrainingError):
            CSDWorkerPool(0)

    def test_single_item_runs_inline_even_with_pool(self):
        with CSDWorkerPool(4) as pool:
            names = pool.map_ordered(
                lambda _: threading.current_thread().name, range(1))
        assert names == [threading.current_thread().name]


# ----------------------------------------------------------------------
# IOCounters thread safety
# ----------------------------------------------------------------------
def test_io_counters_concurrent_hammer():
    """N threads x M adds per counter must lose no update.

    A device's update worker and its lazy writer add to one ledger at
    once, and a step's traffic is read off that ledger: without its
    lock, the ``+=`` read-modify-write races and the totals come up
    short.
    """
    ledger = IOCounters()
    threads_n, adds = 8, 2000

    def hammer():
        for _ in range(adds):
            ledger.add_read(1)
            ledger.add_write(2, ops=3)

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
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
    total = threads_n * adds
    assert ledger == IOCounters(bytes_read=total, bytes_written=2 * total,
                                read_ops=total, write_ops=3 * total)


# ----------------------------------------------------------------------
# parallel == sequential (the acceptance bar)
# ----------------------------------------------------------------------
def _train(tmp_path, tag, num_csds, workers, ratio, steps=2):
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-2},
        subgroup_elements=512, compression_ratio=ratio,
        error_feedback=ratio is not None, parallel_csds=workers,
        num_csds=num_csds)
    tokens, labels = make_batch()
    with SmartInfinityEngine(make_model(), loss_fn,
                             str(tmp_path / tag),
                             config=config) as engine:
        assert engine.workers == workers
        for _ in range(steps):
            engine.train_step(tokens, labels)
        params = engine.space.gather_params()
        traffic = [(t.host_reads, t.host_writes,
                    t.internal_reads, t.internal_writes)
                   for t in engine.meter.iterations]
    return params, traffic


@pytest.mark.parametrize("num_csds", [2, 4])
@pytest.mark.parametrize("ratio", [None, 0.02],
                         ids=["smartupdate", "smartcomp"])
def test_parallel_matches_sequential(tmp_path, num_csds, ratio):
    seq_params, seq_traffic = _train(tmp_path, "seq", num_csds,
                                     workers=1, ratio=ratio)
    par_params, par_traffic = _train(tmp_path, "par", num_csds,
                                     workers=num_csds, ratio=ratio)
    np.testing.assert_array_equal(seq_params, par_params)
    assert seq_traffic == par_traffic


def test_config_default_is_auto():
    assert TrainingConfig().parallel_csds is None


def test_engine_rejects_negative_workers(tmp_path):
    config = TrainingConfig(parallel_csds=-2, num_csds=2)
    with pytest.raises(TrainingError):
        SmartInfinityEngine(make_model(), loss_fn, str(tmp_path),
                            config=config)


# ----------------------------------------------------------------------
# compressed-stream cache (satellite 1)
# ----------------------------------------------------------------------
def test_smartcomp_stream_read_once_per_pass(tmp_path):
    """Internal reads must match the *cached* closed form exactly.

    Per device per update pass the internal path carries:
      * params + optimizer states per subgroup:
        ``subgroups x 4 x count x (1 + num_states)`` read bytes, and
      * the compressed stream, read ONCE: ``8 x kept`` bytes —
    where the pre-cache engine paid ``subgroups x 8 x kept`` for the
    stream instead.  With several subgroups per shard the two closed
    forms differ, so this pins the cache in place.
    """
    ratio = 0.1
    num_csds = 2
    config = TrainingConfig(
        optimizer="adam", optimizer_kwargs={"lr": 1e-2},
        subgroup_elements=512, compression_ratio=ratio,
        error_feedback=False, parallel_csds=1, num_csds=num_csds)
    tokens, labels = make_batch()
    with SmartInfinityEngine(make_model(), loss_fn,
                             str(tmp_path / "cache"),
                             config=config) as engine:
        engine.train_step(tokens, labels)
        traffic = engine.meter.iterations[-1]

        num_states = len(engine.optimizer.state_names)
        cached_form = 0
        legacy_form = 0
        for shard in engine.shards:
            kept = keep_count(shard.count, ratio)
            max_sub = min(config.subgroup_elements, shard.count)
            subgroups = -(-shard.count // max_sub)
            assert subgroups > 1, "need multi-subgroup shards for the test"
            state_bytes = 4 * shard.count * (1 + num_states)
            cached_form += state_bytes + 8 * kept
            legacy_form += state_bytes + subgroups * 8 * kept

    assert traffic.internal_reads == cached_form
    assert traffic.internal_reads < legacy_form


# ----------------------------------------------------------------------
# telemetry worker identity (acceptance: per-thread trace lanes)
# ----------------------------------------------------------------------
def test_update_spans_carry_distinct_worker_threads(tmp_path):
    config = TrainingConfig(optimizer="adam", subgroup_elements=512,
                            parallel_csds=4, num_csds=4)
    tokens, labels = make_batch()
    with telemetry.session() as active:
        with SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "spans"),
                                 config=config) as engine:
            engine.train_step(tokens, labels)
    spans = active.tracer.by_name("device_update")
    assert len(spans) == 4
    workers = {span.attrs["worker"] for span in spans}
    assert workers == {span.thread_name for span in spans}
    assert any(name.startswith("csd-worker") for name in workers)
    update = active.tracer.by_name("update")[-1]
    assert update.attrs["workers"] == 4


def test_sequential_update_spans_stay_on_main_thread(tmp_path):
    config = TrainingConfig(optimizer="adam", subgroup_elements=512,
                            parallel_csds=1, num_csds=2)
    tokens, labels = make_batch()
    with telemetry.session() as active:
        with SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "spans"),
                                 config=config) as engine:
            engine.train_step(tokens, labels)
    spans = active.tracer.by_name("device_update")
    assert {span.thread_name for span in spans} == \
        {threading.current_thread().name}
