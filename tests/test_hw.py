"""Tests for the hardware component models."""

import pytest

from repro.errors import HardwareConfigError
from repro.hw import (CSDSpec, FPGAResources, GPUSpec, PCIeGen, PCIeLink,
                      SSDSpec, a100_40g, a4000, a5000, congested_system,
                      default_system, gen3_x4, gen3_x16, ku15p, smartssd,
                      smartssd_nand)


# ----------------------------------------------------------------------
# PCIe
# ----------------------------------------------------------------------
def test_gen3_x16_effective_bandwidth_matches_measured_reality():
    link = gen3_x16()
    assert 12e9 < link.bandwidth < 14e9


def test_gen3_x4_is_quarter_of_x16():
    assert gen3_x4().bandwidth == pytest.approx(gen3_x16().bandwidth / 4)


def test_pcie_generation_doubles_lane_rate():
    gen3 = PCIeLink(PCIeGen.GEN3, 8)
    gen4 = PCIeLink(PCIeGen.GEN4, 8)
    assert gen4.bandwidth == pytest.approx(2 * gen3.bandwidth, rel=0.01)


def test_pcie_invalid_width_rejected():
    with pytest.raises(HardwareConfigError):
        PCIeLink(PCIeGen.GEN3, 3)


def test_pcie_invalid_efficiency_rejected():
    with pytest.raises(HardwareConfigError):
        PCIeLink(PCIeGen.GEN3, 4, efficiency=0.0)
    with pytest.raises(HardwareConfigError):
        PCIeLink(PCIeGen.GEN3, 4, efficiency=1.5)


def test_pcie_label():
    assert gen3_x4().label() == "PCIe Gen3 x4"


# ----------------------------------------------------------------------
# SSD
# ----------------------------------------------------------------------
def test_smartssd_nand_read_faster_than_write():
    ssd = smartssd_nand()
    assert ssd.read_bandwidth > ssd.write_bandwidth


def test_ssd_transfer_times_include_latency():
    ssd = SSDSpec(name="t", capacity_bytes=1e12, read_bandwidth=1e9,
                  write_bandwidth=1e9, latency=1e-3)
    assert ssd.read_time(1e9) == pytest.approx(1.001)
    assert ssd.write_time(0) == pytest.approx(1e-3)


def test_ssd_invalid_specs_rejected():
    with pytest.raises(HardwareConfigError):
        SSDSpec(name="bad", capacity_bytes=0, read_bandwidth=1,
                write_bandwidth=1)
    with pytest.raises(HardwareConfigError):
        SSDSpec(name="bad", capacity_bytes=1, read_bandwidth=-1,
                write_bandwidth=1)


# ----------------------------------------------------------------------
# GPU
# ----------------------------------------------------------------------
def test_gpu_grades_ordered_by_throughput():
    assert a4000().sustained_flops < a5000().sustained_flops \
        < a100_40g().sustained_flops


def test_gpu_compute_time_scales_linearly():
    gpu = a5000()
    assert gpu.compute_time(2e12) == pytest.approx(2 * gpu.compute_time(1e12))


def test_gpu_compute_time_rejects_negative():
    with pytest.raises(HardwareConfigError):
        a5000().compute_time(-1.0)


def test_a100_costs_more_than_a5000():
    assert a100_40g().cost_usd > a5000().cost_usd


# ----------------------------------------------------------------------
# FPGA
# ----------------------------------------------------------------------
def test_ku15p_matches_paper_inventory():
    fpga = ku15p()
    assert fpga.resources.luts == 522_000
    assert fpga.resources.brams == 984
    assert fpga.resources.urams == 128
    assert fpga.resources.dsps == 1968
    assert fpga.dram_bytes == pytest.approx(4e9)


def test_ku15p_pipelines_calibrated_to_fig14():
    fpga = ku15p()
    ssd = smartssd_nand()
    assert fpga.updater_bandwidth > 7e9
    assert fpga.decompressor_bandwidth >= ssd.read_bandwidth


def test_fpga_resources_fit_and_add():
    small = FPGAResources(luts=10, brams=1, urams=0, dsps=2)
    total = small + small
    assert total.luts == 20
    assert FPGAResources(100, 10, 10, 10).fits(total)
    assert not FPGAResources(15, 10, 10, 10).fits(total)


def test_fpga_utilization_percentages():
    usage = FPGAResources(luts=50, brams=0, urams=0, dsps=0)
    util = usage.utilization_of(FPGAResources(100, 10, 10, 10))
    assert util["LUT"] == pytest.approx(50.0)
    assert util["DSP"] == 0.0


# ----------------------------------------------------------------------
# CSD and topology
# ----------------------------------------------------------------------
def test_smartssd_p2p_bandwidth_limited_by_internal_link():
    csd = smartssd()
    assert csd.p2p_read_bandwidth <= csd.internal_link.bandwidth
    assert csd.p2p_read_bandwidth <= csd.ssd.read_bandwidth


def test_smartssd_costs_six_times_plain_ssd():
    csd = smartssd()
    assert csd.cost_usd == pytest.approx(6 * csd.ssd.cost_usd)


def test_default_system_aggregate_internal_bandwidth_scales():
    small = default_system(num_csds=2)
    large = default_system(num_csds=8)
    assert large.aggregate_internal_read_bandwidth == pytest.approx(
        4 * small.aggregate_internal_read_bandwidth)
    # The host link does not scale with device count.
    assert large.host_link.bandwidth == small.host_link.bandwidth


def test_system_cost_with_plain_vs_smart_ssds():
    system = default_system(num_csds=5)
    smart_cost = system.total_cost_usd()
    plain_cost = system.total_cost_usd(as_plain_ssds=True)
    assert smart_cost - plain_cost == pytest.approx(5 * (2400 - 400))


def test_congested_system_limits_gpu_count():
    with pytest.raises(HardwareConfigError):
        congested_system(num_gpus=4)
    system = congested_system(num_gpus=2)
    assert system.gpus_on_expansion
    assert len(system.gpus) == 2


def test_default_system_requires_devices():
    with pytest.raises(HardwareConfigError):
        default_system(num_csds=0)
