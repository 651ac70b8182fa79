"""Performance model: DES scenarios for every method and topology."""

from .cost import CostEfficiency, cost_efficiency
from .fabric import (CSD_BASE_OVERHEAD, DeviceChannels, Fabric,
                     NAIVE_SUBGROUP_OVERHEAD, RAID_EFFICIENCY)
from .scenarios import (METHODS, PhaseBreakdown, simulate_iteration,
                        subgroup_count)
from .workload import Workload, make_workload

__all__ = [
    "CSD_BASE_OVERHEAD",
    "CostEfficiency",
    "DeviceChannels",
    "Fabric",
    "METHODS",
    "NAIVE_SUBGROUP_OVERHEAD",
    "PhaseBreakdown",
    "RAID_EFFICIENCY",
    "Workload",
    "cost_efficiency",
    "make_workload",
    "simulate_iteration",
    "subgroup_count",
]
