"""Tests for the performance model: fabric, workloads, DES scenarios."""

import pytest

from repro.errors import HardwareConfigError
from repro.experiments import PAPER_TARGETS
from repro.hw import (a100_40g, a5000, congested_system, default_system)
from repro.nn.models import get_model
from repro.perf import (METHODS, Fabric, PhaseBreakdown, cost_efficiency,
                        make_workload, simulate_iteration, subgroup_count)
from repro.sim import Simulator


def simulate_methods(system, workload):
    """Every paper method on the same system/workload."""
    return {method: simulate_iteration(system, workload, method)
            for method in METHODS}


@pytest.fixture(scope="module")
def workload():
    return make_workload(get_model("gpt2-4.0b"))


@pytest.fixture(scope="module")
def grid(workload):
    """Methods x {6, 10} devices, computed once for this module."""
    return {
        n: simulate_methods(default_system(num_csds=n), workload)
        for n in (6, 10)
    }


# ----------------------------------------------------------------------
# workload arithmetic
# ----------------------------------------------------------------------
def test_workload_traffic_terms(workload):
    p = workload.num_params
    assert workload.fp16_param_bytes == 2 * p
    assert workload.gradient_bytes == 4 * p
    assert workload.optimizer_state_bytes == 12 * p  # 6M for Adam
    assert workload.update_read_bytes == 16 * p      # 8M
    assert workload.master_upstream_bytes == 4 * p   # 2M
    assert workload.compressed_gradient_bytes(0.02) == pytest.approx(
        0.02 * 4 * p)


def test_workload_sgd_uses_fewer_states():
    model = get_model("gpt2-4.0b")
    adam = make_workload(model, optimizer="adam")
    sgd = make_workload(model, optimizer="sgd")
    assert sgd.optimizer_state_bytes == pytest.approx(
        adam.optimizer_state_bytes * 2 / 3)


def test_workload_validates(workload):
    with pytest.raises(HardwareConfigError):
        make_workload(get_model("gpt2-4.0b"), batch_size=0)
    with pytest.raises(HardwareConfigError):
        workload.compressed_gradient_bytes(0.0)


def test_subgroup_count_scales_with_model():
    system = default_system(num_csds=10)
    small = subgroup_count(make_workload(get_model("gpt2-4.0b")), system)
    large = subgroup_count(make_workload(get_model("gpt2-33.0b")), system)
    assert large > small >= 6


# ----------------------------------------------------------------------
# fabric
# ----------------------------------------------------------------------
def test_fabric_has_per_device_channels():
    fabric = Fabric(Simulator(), default_system(num_csds=4))
    assert fabric.num_devices == 4
    names = {d.nand_read.name for d in fabric.devices}
    assert len(names) == 4


def test_fabric_raid_read_is_link_capped():
    sim = Simulator()
    fabric = Fabric(sim, default_system(num_csds=10))
    nbytes = 128e9
    sim._timeout_at(fabric._raid_read(nbytes, "raid-read"))
    elapsed = sim.run()
    expected = nbytes / fabric.link_up.bandwidth
    assert elapsed == pytest.approx(expected, rel=0.05)


def test_fabric_raid_read_member_bound_when_few_devices():
    sim = Simulator()
    fabric = Fabric(sim, default_system(num_csds=1))
    nbytes = 32e9
    sim._timeout_at(fabric._raid_read(nbytes, "raid-read"))
    elapsed = sim.run()
    member_bw = fabric.devices[0].nand_read.bandwidth
    assert elapsed == pytest.approx(
        nbytes / member_bw / fabric.raid_efficiency, rel=0.05)


def test_fabric_rejects_bad_efficiency():
    with pytest.raises(HardwareConfigError):
        Fabric(Simulator(), default_system(2), raid_efficiency=0.0)
    with pytest.raises(HardwareConfigError):
        Fabric(Simulator(), default_system(2), p2p_efficiency=1.5)


def test_fabric_channel_scales_rescale_bandwidth():
    base = Fabric(Simulator(), default_system(2))
    scaled = Fabric(Simulator(), default_system(2),
                    channel_scales={"host-link-down": 2.0,
                                    "ssd0-write": 0.5})
    assert scaled.link_down.bandwidth == pytest.approx(
        2.0 * base.link_down.bandwidth)
    assert scaled.devices[0].nand_write.bandwidth == pytest.approx(
        0.5 * base.devices[0].nand_write.bandwidth)
    # Untouched channels keep their catalog bandwidth.
    assert scaled.link_up.bandwidth == base.link_up.bandwidth


def test_fabric_channel_scales_reject_unknown_or_nonpositive():
    with pytest.raises(HardwareConfigError, match="names no channel"):
        Fabric(Simulator(), default_system(2),
               channel_scales={"warp-core": 2.0})
    with pytest.raises(HardwareConfigError):
        Fabric(Simulator(), default_system(2),
               channel_scales={"host-link-down": 0.0})


# ----------------------------------------------------------------------
# scenario invariants
# ----------------------------------------------------------------------
def test_unknown_method_rejected(workload):
    with pytest.raises(HardwareConfigError):
        simulate_iteration(default_system(2), workload, "warp-drive")


def test_phases_positive_and_sum(grid):
    for cell in grid.values():
        for breakdown in cell.values():
            assert breakdown.forward > 0
            assert breakdown.backward_grad > 0
            assert breakdown.update > 0
            assert breakdown.total == pytest.approx(
                breakdown.forward + breakdown.backward_grad
                + breakdown.update)
            fractions = breakdown.fractions()
            assert sum(fractions.values()) == pytest.approx(1.0)


def test_baseline_update_dominates(grid):
    """Paper: update + optimizer traffic is 75%+ of baseline time."""
    for cell in grid.values():
        assert cell["baseline"].fractions()["update"] > 0.70


def test_baseline_flat_beyond_saturation(grid):
    """Fig 3b / Fig 9: baseline gains nothing from 6 -> 10 SSDs."""
    assert grid[10]["baseline"].total == pytest.approx(
        grid[6]["baseline"].total, rel=0.03)


def test_method_ordering_su_suo_suoc(grid):
    """Each Smart-Infinity stage strictly improves on the previous."""
    for cell in grid.values():
        assert cell["su"].total < cell["baseline"].total
        assert cell["su_o"].total < cell["su"].total
        assert cell["su_o_c"].total < cell["su_o"].total


def test_speedups_in_paper_bands():
    """Headline bands at the calibration point (GPT-2 8.4B): the paper
    reports SU 1.18-1.24x @6 / 1.54-1.60x @10, SU+O 1.60-1.66x @10 and
    SU+O+C 1.85-1.98x @10; the calibration scope of each Fig. 9 target
    allows a small modelling margin around them."""
    workload = make_workload(get_model("gpt2-8.4b"))
    cells = {n: simulate_methods(default_system(num_csds=n), workload)
             for n in (6, 10)}
    for num_ssds, method in ((6, "su"), (10, "su"), (10, "su_o"),
                             (10, "su_o_c")):
        low, high = PAPER_TARGETS[f"fig9.{method}@{num_ssds}"].bands[
            "gpt2-8.4b"]
        speedup = cells[num_ssds][method].speedup_over(
            cells[num_ssds]["baseline"])
        assert low <= speedup <= high, (num_ssds, method)


def test_smart_scales_with_devices_baseline_does_not(workload):
    smart6 = simulate_iteration(default_system(6), workload, "su_o_c")
    smart10 = simulate_iteration(default_system(10), workload, "su_o_c")
    assert smart10.total < smart6.total * 0.8


def test_forward_unaffected_by_method(grid):
    for cell in grid.values():
        forwards = {m: b.forward for m, b in cell.items()}
        assert max(forwards.values()) == pytest.approx(
            min(forwards.values()), rel=1e-6)


def test_compression_shrinks_backward_phase(grid):
    for cell in grid.values():
        assert cell["su_o_c"].backward_grad < cell["su_o"].backward_grad


def test_a100_speedup_higher_than_a5000(workload):
    results = {}
    for gpu in (a5000(), a100_40g()):
        system = default_system(num_csds=10, gpu=gpu)
        base = simulate_iteration(system, workload, "baseline")
        smart = simulate_iteration(system, workload, "su_o_c")
        results[gpu.name] = smart.speedup_over(base)
    assert results["A100-40GB"] > results["RTX-A5000"]
    # The paper tops out at 2.11x.
    low, high = PAPER_TARGETS["fig11.a100@10"].bands["all"]
    assert low <= results["A100-40GB"] <= high


def test_lower_ratio_never_slower(workload):
    system = default_system(num_csds=10)
    times = [simulate_iteration(system, workload, "su_o_c",
                                compression_ratio=r).total
             for r in (0.01, 0.05, 0.20)]
    assert times[0] <= times[1] <= times[2]


def test_congested_topology_inflates_backward(workload):
    small = make_workload(get_model("gpt2-1.16b"))
    default = simulate_iteration(default_system(num_csds=10), small,
                                 "su_o_c")
    congested = simulate_iteration(
        congested_system(num_gpus=1, num_csds=10), small, "su_o_c")
    assert congested.backward_grad > default.backward_grad


def test_congested_multi_gpu_shrinks_compute(workload):
    small = make_workload(get_model("gpt2-1.16b"))
    one = simulate_iteration(congested_system(1, 10), small, "baseline")
    three = simulate_iteration(congested_system(3, 10), small, "baseline")
    assert three.forward < one.forward


def test_speedup_stable_across_model_sizes():
    system = default_system(num_csds=10)
    speedups = []
    for name in ("gpt2-4.0b", "gpt2-8.4b", "gpt2-16.6b"):
        workload = make_workload(get_model(name))
        base = simulate_iteration(system, workload, "baseline")
        smart = simulate_iteration(system, workload, "su_o_c")
        speedups.append(smart.speedup_over(base))
    assert max(speedups) - min(speedups) < 0.45


def test_simulation_is_deterministic(workload):
    a = simulate_iteration(default_system(7), workload, "su_o_c")
    b = simulate_iteration(default_system(7), workload, "su_o_c")
    assert a.total == b.total
    assert a.update == b.update


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def test_cost_efficiency_prices_baseline_with_plain_ssds(workload):
    system = default_system(num_csds=4)
    breakdown = PhaseBreakdown(forward=1.0, backward_grad=1.0, update=2.0)
    base = cost_efficiency(system, workload, "baseline", breakdown)
    smart = cost_efficiency(system, workload, "su_o_c", breakdown)
    assert smart.system_cost_usd - base.system_cost_usd == pytest.approx(
        4 * 2000)
    # Same time, higher cost -> lower efficiency for the CSD build.
    assert smart.gflops_per_dollar < base.gflops_per_dollar
    assert base.gflops == pytest.approx(smart.gflops)
