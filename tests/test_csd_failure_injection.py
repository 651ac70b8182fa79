"""Failure injection: errors in the handler's background writer must
surface at the next synchronization point, never be swallowed."""

import sys
import threading

import numpy as np
import pytest

from repro.csd import (SmartSSDDevice, TransferHandler, UpdaterKernel,
                       plan_subgroups)
from repro.errors import StorageError
from repro.optim import Adam


def seed(device, total):
    rng = np.random.default_rng(0)
    for name in ("master_params", "grads"):
        device.store.allocate(name, total)
        device.store.write_array(
            name, rng.standard_normal(total).astype(np.float32))
    for name in ("momentum", "variance"):
        device.store.allocate(name, total)
        device.store.write_array(name, np.zeros(total, dtype=np.float32))


class FlakyDevice(SmartSSDDevice):
    """Fails the Nth internal write (simulating an SSD write error)."""

    def __init__(self, *args, fail_on_write: int, **kwargs):
        super().__init__(*args, **kwargs)
        self._fail_on_write = fail_on_write
        self._writes_seen = 0

    def p2p_write(self, region, start, array):
        self._writes_seen += 1
        if self._writes_seen == self._fail_on_write:
            raise StorageError("injected flash write failure")
        super().p2p_write(region, start, array)


def run_handler(device, total, subgroup=64):
    optimizer = Adam(lr=1e-3)
    kernel = UpdaterKernel(optimizer, chunk_elements=32)
    handler = TransferHandler(device, optimizer.state_names, subgroup)

    def load(sub, buffer):
        return device.p2p_read_into("grads", sub.start, buffer, sub.count)

    handler.run_update_pass(plan_subgroups(total, subgroup), kernel, 1,
                            load)
    handler.close()


def test_urgent_write_failure_raises_immediately(tmp_path):
    device = FlakyDevice(str(tmp_path / "f.img"), 1 << 20,
                         fail_on_write=1)  # first write = urgent params
    seed(device, 192)
    with pytest.raises(StorageError, match="injected"):
        run_handler(device, 192)
    device.close()


def test_lazy_write_failure_surfaces_at_sync(tmp_path):
    # Writes per subgroup: 1 urgent + 2 lazy; fail a lazy one.
    device = FlakyDevice(str(tmp_path / "l.img"), 1 << 20,
                         fail_on_write=2)
    seed(device, 192)
    with pytest.raises(StorageError, match="injected"):
        run_handler(device, 192)
    device.close()


def test_failure_does_not_hang_worker(tmp_path):
    """After a lazy failure the handler can still be closed cleanly."""
    device = FlakyDevice(str(tmp_path / "h.img"), 1 << 20,
                         fail_on_write=3)
    seed(device, 192)
    optimizer = Adam(lr=1e-3)
    kernel = UpdaterKernel(optimizer, chunk_elements=32)
    handler = TransferHandler(device, optimizer.state_names, 64)

    def load(sub, buffer):
        return device.p2p_read_into("grads", sub.start, buffer, sub.count)

    with pytest.raises(StorageError):
        handler.run_update_pass(plan_subgroups(192, 64), kernel, 1, load)
    handler.close()  # must not deadlock
    device.close()


def test_handler_stress_commit_log_complete_and_no_deadlock(tmp_path):
    """Tiny subgroups, hundreds of passes, one lazy-writer failure: every
    clean pass leaves a complete commit log, the failed pass raises, and
    the hand-off through the worker queue never wedges."""
    total, subgroup, passes, failing_pass = 256, 8, 300, 150
    subgroups = plan_subgroups(total, subgroup)

    class FlakyVariance(SmartSSDDevice):
        """Fails one lazy write-back of the ``variance`` region."""

        fail_on = failing_pass * len(subgroups) + 7
        seen = 0

        def p2p_write(self, region, start, array):
            if region == "variance":
                self.seen += 1
                if self.seen == self.fail_on:
                    raise StorageError("injected flash write failure")
            super().p2p_write(region, start, array)

    device = FlakyVariance(str(tmp_path / "s.img"), 1 << 20)
    seed(device, total)
    optimizer = Adam(lr=1e-3)
    kernel = UpdaterKernel(optimizer)
    complete = {(name, sub.start) for name in optimizer.state_names
                for sub in subgroups}
    outcome = {}

    def load(sub, buffer):
        return device.p2p_read_into("grads", sub.start, buffer, sub.count)

    def stress():
        raised = []
        with TransferHandler(device, optimizer.state_names,
                             subgroup) as handler:
            for index in range(passes):
                try:
                    handler.run_update_pass(subgroups, kernel, index + 1,
                                            load)
                except StorageError:
                    raised.append(index)
                    # Once the writer drains, the failed pass's log is
                    # final.
                    handler.synchronize()
                    outcome["partial"] = set(handler.state_commits)
                    continue
                assert handler.state_commits == complete, index
        outcome["raised"] = raised

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def guarded():
            try:
                stress()
            except BaseException as exc:  # reported by the assert below
                outcome["error"] = exc

        runner = threading.Thread(target=guarded, daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive(), "handler deadlocked"
    assert "error" not in outcome, outcome["error"]
    assert outcome.get("raised") == [failing_pass], outcome
    # The failed pass committed part of its log, never the failed write
    # (the variance slice of its seventh subgroup).
    assert set() < outcome["partial"] < complete
    assert ("variance", 6 * subgroup) not in outcome["partial"]
    device.close()
