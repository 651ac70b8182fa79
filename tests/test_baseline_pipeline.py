"""The RAID0 baseline's two-deep block loop: op order, errors, threads.

``BaselineOffloadEngine`` updates block k on the stepping thread while
its ``raid0-io`` thread writes back block k-1 and loads block k+1.
These tests pin the order the store sees (the DES's depth-2 order,
``perf/scenarios.py``'s ``update-buffers``), that a seeded fault stream
does not depend on how the two threads happen to interleave, and that
a failed hand-off surfaces on the stepping thread and leaves no thread
behind.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import DeviceFailedError
from repro.faults import FaultPlan, FaultRule
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import BaselineOffloadEngine, TrainingConfig

SUBGROUP = 4096


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_batch(seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 32, size=(4, 16)),
            rng.integers(0, 2, size=4))


def make_engine(storage_dir, **config):
    model = SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=16), num_classes=2, seed=0)
    engine = BaselineOffloadEngine(
        model, loss_fn, str(storage_dir),
        config=TrainingConfig(optimizer="adam",
                              optimizer_kwargs={"lr": 1e-2},
                              subgroup_elements=SUBGROUP, raid_members=2,
                              **config))
    if engine.faults is not None:
        engine.faults._sleep = lambda seconds: None
    return engine


def record_slice_ops(engine):
    """Log every slice read/write of the engine's store as
    ``(op, region, start, thread name)``, failed calls included."""
    ops = []
    store = engine.store
    read, write = store.read_slice_into, store.write_slice

    def read_slice_into(name, start, count, out):
        ops.append(("R", name, start, threading.current_thread().name))
        return read(name, start, count, out)

    def write_slice(name, start, array):
        ops.append(("W", name, start, threading.current_thread().name))
        return write(name, start, array)

    store.read_slice_into = read_slice_into
    store.write_slice = write_slice
    return ops


def depth_two_order(starts, states, interleaved):
    """R0 R1 W0 R2 W1 ... W(n-1): hand-off j writes back block j - 2,
    then loads block j (its gradient slice first, when interleaved)."""
    def load(start):
        grads = [("W", "grads", start)] if interleaved else []
        return grads + [("R", name, start)
                        for name in ("grads", "master_params", *states)]

    order = []
    for j in range(len(starts) + 2):
        if j >= 2:
            order += [("W", name, starts[j - 2])
                      for name in ("master_params", *states)]
        if j < len(starts):
            order += load(starts[j])
    return order


def raid0_io_threads():
    return {thread for thread in threading.enumerate()
            if thread.name == "raid0-io"}


@pytest.mark.parametrize("schedule", ["phased", "interleaved"])
def test_members_see_the_depth_two_order(tmp_path, schedule):
    with make_engine(tmp_path, schedule=schedule) as engine:
        starts = list(range(0, engine.num_params, SUBGROUP))
        assert len(starts) >= 4
        ops = record_slice_ops(engine)
        for step in range(2):
            del ops[:]
            assert not engine.train_step(*make_batch(step)).overflow
            assert [op[:3] for op in ops] == depth_two_order(
                starts, engine.optimizer.state_names,
                schedule == "interleaved")
            assert {op[3] for op in ops} == {"raid0-io"}


def test_seeded_fault_stream_does_not_depend_on_thread_timing(tmp_path):
    """The second run switches threads every microsecond."""
    plan = FaultPlan(rules=(FaultRule(kind="io_error", probability=0.05),),
                     seed=5)
    runs = []
    interval = sys.getswitchinterval()
    for run, switch in enumerate((interval, 1e-6)):
        sys.setswitchinterval(switch)
        try:
            with make_engine(tmp_path / str(run), fault_plan=plan) as engine:
                losses = [engine.train_step(*make_batch(step)).loss
                          for step in range(3)]
                runs.append((losses, engine.space.gather_params(),
                             engine.fault_series()))
        finally:
            sys.setswitchinterval(interval)
    (losses_a, params_a, faults_a), (losses_b, params_b, faults_b) = runs
    assert faults_a == faults_b
    assert any(key[0] == "faults_retries_total" for key in faults_a)
    assert losses_a == losses_b
    np.testing.assert_array_equal(params_a, params_b)


def test_failed_prefetch_raises_on_the_stepping_thread(tmp_path):
    """A dropout on a mid-loop load: the step raises it, the I/O thread
    goes quiet at once, and ``close`` joins the thread."""
    with make_engine(tmp_path / "probe") as probe:
        member = probe.volume.members[0].counters
        before = member.read_ops + member.write_ops
        probe.train_step(*make_batch(0))
        step_ops = member.read_ops + member.write_ops - before

    threads_before = raid0_io_threads()
    plan = FaultPlan(rules=(FaultRule(kind="device_dropout", device=0,
                                      op="read", at_op=step_ops // 2),))
    engine = make_engine(tmp_path / "faulty", fault_plan=plan)
    assert engine._io_thread in raid0_io_threads() - threads_before
    ops = record_slice_ops(engine)
    with pytest.raises(DeviceFailedError):
        engine.train_step(*make_batch(0))
    seen = len(ops)
    failed = ops[-1]
    starts = list(range(0, engine.num_params, SUBGROUP))
    assert failed[0] == "R" and failed[3] == "raid0-io"
    assert starts[2] <= failed[2] < starts[-1]         # a mid-loop load
    assert ("W", "master_params", 0, "raid0-io") in ops
    time.sleep(0.05)
    assert len(ops) == seen                            # nothing in flight
    engine.close()
    assert not engine._io_thread.is_alive()
    assert raid0_io_threads() <= threads_before
