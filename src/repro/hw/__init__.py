"""Hardware component models: PCIe, SSDs, GPUs, FPGAs, CSDs, topologies."""

from .csd import CSDSpec, smartssd
from .fpga import FPGAResources, FPGASpec, ku15p
from .gpu import GPUSpec, a100_40g, a4000, a5000
from .host import (CPUSpec, HostMemorySpec, host_dram_1tb, xeon_gold_6342)
from .pcie import PCIeGen, PCIeLink, gen3_x4, gen3_x16
from .ssd import SSDSpec, smartssd_nand
from .topology import SystemSpec, congested_system, default_system

__all__ = [
    "CPUSpec",
    "CSDSpec",
    "FPGAResources",
    "FPGASpec",
    "GPUSpec",
    "HostMemorySpec",
    "PCIeGen",
    "PCIeLink",
    "SSDSpec",
    "SystemSpec",
    "a100_40g",
    "a4000",
    "a5000",
    "congested_system",
    "default_system",
    "gen3_x4",
    "gen3_x16",
    "host_dram_1tb",
    "ku15p",
    "smartssd",
    "smartssd_nand",
    "xeon_gold_6342",
]
