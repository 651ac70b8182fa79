"""Functional computational-storage emulation: kernels, devices, handler."""

from .device import SmartSSDDevice
from .handler import (Subgroup, TransferHandler, naive_update_pass,
                      plan_subgroups)
from .hls import (KernelDesign, get_design, register_design,
                  registered_designs, sanity_check_updater, updater_design)
from .kernels import DecompressorKernel, KernelCounters, UpdaterKernel

__all__ = [
    "DecompressorKernel",
    "KernelCounters",
    "KernelDesign",
    "SmartSSDDevice",
    "Subgroup",
    "TransferHandler",
    "UpdaterKernel",
    "get_design",
    "naive_update_pass",
    "plan_subgroups",
    "register_design",
    "registered_designs",
    "sanity_check_updater",
    "updater_design",
]
