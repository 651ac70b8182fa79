"""Tests for the functional SmartSSD device and the transfer handler."""

import numpy as np
import pytest

from repro import telemetry
from repro.csd import (SmartSSDDevice, Subgroup, TransferHandler,
                       UpdaterKernel, naive_update_pass, plan_subgroups)
from repro.errors import CapacityError, KernelError
from repro.optim import Adam


@pytest.fixture
def device(tmp_path):
    with SmartSSDDevice(str(tmp_path / "csd.img"), 1 << 22,
                        device_id=0) as dev:
        yield dev


def seed_device(device, total, seed=0):
    """Allocate and initialize the standard regions on a device."""
    rng = np.random.default_rng(seed)
    device.store.allocate("master_params", total)
    device.store.allocate("momentum", total)
    device.store.allocate("variance", total)
    device.store.allocate("grads", total)
    masters = rng.standard_normal(total).astype(np.float32)
    grads = rng.standard_normal(total).astype(np.float32)
    device.store.write_array("master_params", masters)
    device.store.write_array("momentum", np.zeros(total, dtype=np.float32))
    device.store.write_array("variance", np.zeros(total, dtype=np.float32))
    device.store.write_array("grads", grads)
    return masters, grads


# ----------------------------------------------------------------------
# device: DRAM accounting and traffic ledgers
# ----------------------------------------------------------------------
def test_dram_allocation_tracked(device):
    device.allocate_dram("buf", 1000)
    assert device.dram_allocated == 4000
    device.free_dram("buf")
    assert device.dram_allocated == 0


def test_dram_oom_raises(tmp_path):
    from repro.hw.csd import CSDSpec
    from repro.hw.fpga import FPGAResources, FPGASpec
    from repro.hw.pcie import gen3_x4
    from repro.hw.ssd import smartssd_nand

    tiny_fpga = FPGASpec(name="tiny",
                         resources=FPGAResources(1, 1, 1, 1),
                         dram_bytes=1024, updater_bandwidth=1e9,
                         decompressor_bandwidth=1e9)
    spec = CSDSpec(name="tiny-csd", ssd=smartssd_nand(), fpga=tiny_fpga,
                   internal_link=gen3_x4(), external_link=gen3_x4())
    with SmartSSDDevice(str(tmp_path / "t.img"), 1 << 16,
                        spec=spec) as device:
        device.allocate_dram("a", 200)  # 800 bytes
        with pytest.raises(CapacityError):
            device.allocate_dram("b", 100)  # would exceed 1024


def test_dram_duplicate_and_missing_names(device):
    device.allocate_dram("x", 10)
    with pytest.raises(KernelError):
        device.allocate_dram("x", 10)
    with pytest.raises(KernelError):
        device.free_dram("never")
    with pytest.raises(KernelError):
        device.dram_buffer("never")


def test_host_and_internal_ledgers_are_separate(device):
    total = 64
    seed_device(device, total)
    buffer = device.allocate_dram("stage", total)

    device.host_read_into("master_params",
                          np.empty(total, dtype=np.float32), 0, total)
    assert device.host_traffic.bytes_read == 4 * total
    assert device.internal_traffic.bytes_read == 0

    device.p2p_read_into("grads", 0, buffer, total)
    assert device.internal_traffic.bytes_read == 4 * total
    assert device.host_traffic.bytes_read == 4 * total  # unchanged

    device.p2p_write("momentum", 0, buffer[:total])
    assert device.internal_traffic.bytes_written == 4 * total
    assert device.host_traffic.bytes_written == 0


def test_host_write_roundtrip(device):
    seed_device(device, 32)
    payload = np.arange(32, dtype=np.float32)
    device.host_write("grads", payload)
    np.testing.assert_array_equal(
        device.host_read_into("grads", np.empty(32, dtype=np.float32)),
        payload)


def test_p2p_read_generic_dtype(tmp_path):
    with SmartSSDDevice(str(tmp_path / "i.img"), 1 << 16) as device:
        device.store.allocate("idx", 8, dtype=np.int32)
        device.store.write_array("idx", np.arange(8, dtype=np.int32))
        out = device.p2p_read_into("idx", 0, np.empty(8, dtype=np.int32), 8)
        np.testing.assert_array_equal(out, np.arange(8, dtype=np.int32))
        assert device.internal_traffic.bytes_read == 32


def test_p2p_write_meters_the_bytes_it_moves(tmp_path):
    """One P2P write method, metering ``size * itemsize``: the
    buffer-slice twin it absorbed charged 4 bytes per element whatever
    the dtype."""
    with SmartSSDDevice(str(tmp_path / "q.img"), 1 << 16) as device:
        device.store.allocate("q", 16, dtype=np.int8)
        staged = np.arange(32, dtype=np.int8)
        device.p2p_write("q", 0, staged[:16])
        assert device.internal_traffic.bytes_written == 16
        assert not hasattr(device, "p2p_write_from")


def test_p2p_read_into_checks_buffer(device):
    seed_device(device, 64)
    small = device.allocate_dram("small", 8)
    with pytest.raises(CapacityError):
        device.p2p_read_into("grads", 0, small, 16)


# ----------------------------------------------------------------------
# subgroup planning
# ----------------------------------------------------------------------
def test_plan_subgroups_covers_exactly():
    groups = plan_subgroups(100, 32)
    assert [g.count for g in groups] == [32, 32, 32, 4]
    assert groups[0].start == 0
    assert groups[-1].start == 96


def test_plan_subgroups_validates():
    with pytest.raises(KernelError):
        plan_subgroups(0, 10)
    with pytest.raises(KernelError):
        plan_subgroups(10, 0)
    with pytest.raises(KernelError):
        Subgroup(index=0, start=-1, count=4)


# ----------------------------------------------------------------------
# transfer handler vs naive loop
# ----------------------------------------------------------------------
def run_pass(device, total, use_handler, steps=3, subgroup=40):
    optimizer = Adam(lr=1e-2)
    kernel = UpdaterKernel(optimizer, chunk_elements=16)
    subgroups = plan_subgroups(total, subgroup)
    state_names = optimizer.state_names

    def load_grads(sub, buffer):
        return device.p2p_read_into("grads", sub.start, buffer, sub.count)

    if use_handler:
        handler = TransferHandler(device, state_names, subgroup)
        for step in range(1, steps + 1):
            handler.run_update_pass(subgroups, kernel, step, load_grads)
        handler.close()
        return
    for step in range(1, steps + 1):
        naive_update_pass(device, subgroups, kernel, step, state_names,
                          load_grads)


def test_handler_and_naive_produce_identical_state(tmp_path):
    total = 150
    results = {}
    for mode in ("handler", "naive"):
        with SmartSSDDevice(str(tmp_path / f"{mode}.img"),
                            1 << 22) as device:
            seed_device(device, total, seed=5)
            run_pass(device, total, use_handler=(mode == "handler"))
            results[mode] = {
                name: device.store.read_array(name)
                for name in ("master_params", "momentum", "variance")
            }
    for name in results["handler"]:
        np.testing.assert_array_equal(results["handler"][name],
                                      results["naive"][name])


def test_handler_matches_flat_host_update(tmp_path):
    total = 100
    with SmartSSDDevice(str(tmp_path / "h.img"), 1 << 22) as device:
        masters, grads = seed_device(device, total, seed=9)
        run_pass(device, total, use_handler=True, steps=2)
        updated = device.store.read_array("master_params")

    optimizer = Adam(lr=1e-2)
    reference = masters.copy()
    state = optimizer.init_state(total)
    for step in (1, 2):
        optimizer.step(reference, grads.copy(), state, step)
    np.testing.assert_array_equal(updated, reference)


def test_handler_buffer_footprint_is_fixed(tmp_path):
    with SmartSSDDevice(str(tmp_path / "f.img"), 1 << 22) as device:
        seed_device(device, 200)
        handler = TransferHandler(device, ("momentum", "variance"), 64)
        # 4 buffers (params, grads, momentum, variance) x 64 elements,
        # and a pass allocates nothing more.
        assert device.dram_allocated == 4 * 64 * 4
        handler.run_update_pass(
            plan_subgroups(200, 64), UpdaterKernel(Adam()), 1,
            lambda s, b: device.p2p_read_into("grads", s.start, b, s.count))
        assert device.dram_allocated == 4 * 64 * 4
        handler.close()
        assert device.dram_allocated == 0


def test_handler_rejects_oversized_subgroup(tmp_path):
    with SmartSSDDevice(str(tmp_path / "o.img"), 1 << 22) as device:
        seed_device(device, 100)
        handler = TransferHandler(device, ("momentum", "variance"), 16)
        kernel = UpdaterKernel(Adam(), chunk_elements=8)
        big = [Subgroup(index=0, start=0, count=32)]
        with pytest.raises(CapacityError):
            handler.run_update_pass(
                big, kernel, 1,
                lambda s, b: device.p2p_read_into("grads", s.start, b,
                                                  s.count))
        handler.close()


def test_handler_urgent_callback_fires_per_subgroup(tmp_path):
    with SmartSSDDevice(str(tmp_path / "c.img"), 1 << 22) as device:
        seed_device(device, 120)
        handler = TransferHandler(device, ("momentum", "variance"), 40)
        kernel = UpdaterKernel(Adam(), chunk_elements=16)
        seen = []
        handler.run_update_pass(
            plan_subgroups(120, 40), kernel, 1,
            lambda s, b: device.p2p_read_into("grads", s.start, b, s.count),
            on_params_written=lambda s: seen.append(s.index))
        handler.close()
        assert seen == [0, 1, 2]


def test_handler_lazy_writebacks_all_drain(tmp_path):
    with SmartSSDDevice(str(tmp_path / "l.img"), 1 << 22) as device, \
            telemetry.session() as session:
        seed_device(device, 120)
        handler = TransferHandler(device, ("momentum", "variance"), 40)
        kernel = UpdaterKernel(Adam(), chunk_elements=16)
        handler.run_update_pass(
            plan_subgroups(120, 40), kernel, 1,
            lambda s, b: device.p2p_read_into("grads", s.start, b, s.count))
        # Two variables x three subgroups, all committed by the return.
        assert handler.state_commits == {
            (name, start) for name in ("momentum", "variance")
            for start in (0, 40, 80)}
        tracer = session.tracer
        assert len(tracer.by_name("handler.lazy_writeback")) == 2 * 3
        assert len(tracer.by_name("handler.urgent_writeback")) == 3
        handler.close()


def test_handler_close_is_idempotent_and_rejects_reuse(tmp_path):
    with SmartSSDDevice(str(tmp_path / "x.img"), 1 << 22) as device:
        seed_device(device, 64)
        handler = TransferHandler(device, ("momentum", "variance"), 64)
        handler.close()
        handler.close()
        with pytest.raises(KernelError):
            handler.run_update_pass([], UpdaterKernel(Adam()), 1,
                                    lambda s, b: b)


def test_naive_pass_frees_all_dram(tmp_path):
    with SmartSSDDevice(str(tmp_path / "n.img"), 1 << 22) as device:
        seed_device(device, 100)
        run_pass(device, 100, use_handler=False, steps=1)
        assert device.dram_allocated == 0
