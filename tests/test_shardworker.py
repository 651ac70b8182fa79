"""The per-CSD state machine on its own: no engine, no pool, no shm.

:class:`~repro.runtime.shardworker.ShardWorker` is what both parallel
backends run; everything that differs by host is a constructor argument,
so a worker can be driven with plain ndarrays and a fake upstream sink.
"""

import contextlib

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.optim import make_optimizer
from repro.runtime import Shard, TrainingConfig
from repro.runtime.shardworker import ShardWorker

COUNT = 200          # four subgroups: 64 + 64 + 64 + 8
LR = 1e-2


class ArraySink:
    """Fake upstream sink: every subgroup's masters land in one ndarray."""

    def __init__(self) -> None:
        self.upstream = np.zeros(COUNT, dtype=np.float32)

    def destination(self, subgroup):
        return contextlib.nullcontext(
            self.upstream[subgroup.start:subgroup.start + subgroup.count])


def make_worker(directory, faults=None, **config_kwargs):
    config = TrainingConfig(optimizer="adam", subgroup_elements=64,
                            **config_kwargs)
    masters = np.random.default_rng(0).standard_normal(COUNT).astype(
        np.float32)
    sink = ArraySink()
    worker = ShardWorker(0, Shard(device_id=0, start=0, count=COUNT),
                         config, str(directory),
                         make_optimizer("adam", lr=LR), faults, masters,
                         sink)
    return worker, sink


def host_bytes(worker):
    """``(read, written)`` on the worker's host-link ledger so far."""
    host = worker.device.host_traffic
    return host.bytes_read, host.bytes_written


def read_state(worker):
    out = {name: np.empty(COUNT, dtype=np.float32)
           for name in ("master_params", *worker.state_names)}
    worker.read_state(out)
    return out


@pytest.mark.parametrize("use_transfer_handler", [True, False],
                         ids=["handler", "naive"])
def test_mid_pass_dropout_salvage_equals_fault_free_state(
        tmp_path, use_transfer_handler):
    grads = np.random.default_rng(1).standard_normal(
        (2, COUNT)).astype(np.float32)
    (tmp_path / "clean").mkdir()
    (tmp_path / "chaos").mkdir()

    clean, clean_sink = make_worker(
        tmp_path / "clean", use_transfer_handler=use_transfer_handler)
    for step in (1, 2):
        assert host_bytes(clean) == (4 * COUNT * (step - 1),) * 2
        resp = clean.offload(grads[step - 1], overflow=False)
        assert set(resp) == {"index", "demoted_now"}
        assert host_bytes(clean)[1] == 4 * COUNT * step
        resp = clean.update(step, LR)
        assert resp == {"index": 0, "demoted_now": False}
        assert host_bytes(clean)[0] == 4 * COUNT * step
    expected = read_state(clean)
    np.testing.assert_array_equal(clean_sink.upstream,
                                  expected["master_params"])
    clean.close()

    # Device op 55 falls inside step 2's update pass (37 ops per step:
    # one gradient write, then nine per subgroup).
    plan = FaultPlan(rules=(
        FaultRule(kind="device_dropout", device=0, at_op=55),))
    chaos, _ = make_worker(
        tmp_path / "chaos", FaultInjector(plan, sleep=lambda s: None),
        use_transfer_handler=use_transfer_handler)
    chaos.offload(grads[0], overflow=False)
    assert not chaos.update(1, LR)["demoted_now"]
    assert not chaos.offload(grads[1], overflow=False)["demoted_now"]
    resp = chaos.update(2, LR)
    assert resp["demoted_now"] and resp["recovered"]
    assert resp["cause_type"] == "DeviceFailedError"
    assert not resp["retry_exhausted"]
    # The pass was cut short: step 2 read back part of the shard only,
    # and the salvage reads are on neither link's ledger.
    reads, writes = host_bytes(chaos)
    assert 4 * COUNT < reads < 8 * COUNT and writes == 8 * COUNT

    masters, states = chaos.salvaged
    np.testing.assert_array_equal(masters, expected["master_params"])
    for name in chaos.state_names:
        np.testing.assert_array_equal(states[name], expected[name])

    # From here on the shard lives host-side: no device I/O, no update.
    assert chaos.demoted
    ssd = chaos.device.ssd.counters.snapshot()
    chaos.offload(grads[0], overflow=False)
    chaos.update(3, LR)
    assert host_bytes(chaos) == (reads, writes)
    assert chaos.device.ssd.counters == ssd
    chaos.close()
