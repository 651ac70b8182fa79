"""Byte-conservation invariants of the DES scenarios.

The simulated channels must carry exactly the bytes the workload
arithmetic says each method moves — Table I, enforced at the performance-
model level (the functional engines enforce it at the I/O level).
"""

import pytest

from repro.hw import default_system
from repro.nn.models import get_model
from repro.perf.scenarios import trace_scenario
from repro.perf.workload import make_workload


def run_scenario(*args, **kwargs):
    """``(breakdown, fabric)`` of one simulated iteration."""
    trace = trace_scenario(*args, **kwargs)
    return trace.breakdown, trace.fabric

NUM_DEVICES = 5


@pytest.fixture(scope="module")
def workload():
    return make_workload(get_model("gpt2-1.16b"))


def channel_bytes(fabric, selector):
    return sum(getattr(device, selector).bytes_total
               for device in fabric.devices)


def test_baseline_link_bytes_match_table1(workload):
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "baseline")
    # Up-link: optimizer states + gradients read back to the host (8M).
    assert fabric.link_up.bytes_total == pytest.approx(
        workload.update_read_bytes, rel=1e-6)
    # Down-link: gradient offload (2M) + optimizer state write-back (6M).
    assert fabric.link_down.bytes_total == pytest.approx(
        workload.gradient_bytes + workload.update_write_bytes, rel=1e-6)


def test_smartupdate_link_bytes_match_table1(workload):
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "su_o")
    # Down: gradients only (2M).  Up: masters only (2M).
    assert fabric.link_down.bytes_total == pytest.approx(
        workload.gradient_bytes, rel=1e-6)
    assert fabric.link_up.bytes_total == pytest.approx(
        workload.master_upstream_bytes, rel=1e-6)


def test_smartcomp_link_bytes_match_table1(workload):
    ratio = 0.02
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "su_o_c", compression_ratio=ratio)
    assert fabric.link_down.bytes_total == pytest.approx(
        workload.compressed_gradient_bytes(ratio), rel=1e-6)
    assert fabric.link_up.bytes_total == pytest.approx(
        workload.master_upstream_bytes, rel=1e-6)


def test_smart_nand_bytes_cover_states_and_masters(workload):
    """Per-device flash traffic: optimizer states + gradients in, states
    + masters out, plus the upstream read — scaled by P2P efficiency."""
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "su_o")
    p2p = fabric.p2p_efficiency
    expected_reads = (workload.update_read_bytes / p2p
                      + workload.master_upstream_bytes)
    expected_writes = (workload.update_write_bytes / p2p
                       + workload.gradient_bytes)
    assert channel_bytes(fabric, "nand_read") == pytest.approx(
        expected_reads, rel=1e-6)
    assert channel_bytes(fabric, "nand_write") == pytest.approx(
        expected_writes, rel=1e-6)


def test_updater_streams_touched_bytes(workload):
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "su_o")
    assert channel_bytes(fabric, "fpga_updater") == pytest.approx(
        workload.update_touched_bytes, rel=1e-6)


def test_decompressor_streams_dense_gradients_only_when_compressed(
        workload):
    _b, plain = run_scenario(default_system(NUM_DEVICES), workload,
                             "su_o")
    _b, comp = run_scenario(default_system(NUM_DEVICES), workload,
                            "su_o_c")
    assert channel_bytes(plain, "fpga_decompressor") == 0
    assert channel_bytes(comp, "fpga_decompressor") == pytest.approx(
        workload.gradient_bytes, rel=1e-6)


def test_bounce_carries_offloaded_gradients(workload):
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "baseline")
    assert fabric.bounce.bytes_total == pytest.approx(
        workload.gradient_bytes, rel=1e-6)


def test_cpu_touches_all_update_bytes_in_baseline_only(workload):
    _b, base = run_scenario(default_system(NUM_DEVICES), workload,
                            "baseline")
    _b, smart = run_scenario(default_system(NUM_DEVICES), workload,
                             "su_o")
    assert base.cpu.bytes_total == pytest.approx(
        workload.update_touched_bytes, rel=1e-6)
    assert smart.cpu.bytes_total == 0


def test_device_bytes_balanced_across_devices(workload):
    _b, fabric = run_scenario(default_system(NUM_DEVICES), workload,
                              "su_o_c")
    reads = [device.nand_read.bytes_total for device in fabric.devices]
    assert max(reads) == pytest.approx(min(reads), rel=1e-6)
