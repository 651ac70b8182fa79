"""System topology descriptions.

Two PCIe topologies from the paper are expressible:

* **Default** — the GPU sits on its own root port; the CSDs/SSDs sit behind
  an H3 Falcon-style PCIe expansion whose uplink to the host is the shared
  interconnect every storage byte crosses.
* **Congested** (§VIII-A, Fig. 17) — one to three single-slot GPUs are
  plugged *into the expansion chassis itself*, so GPU traffic (parameters,
  activations, tensor-parallel exchanges) shares the very same uplink as
  storage traffic.

A topology is declarative; `repro.perf.fabric` instantiates simulation
channels from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import HardwareConfigError
from .csd import CSDSpec, smartssd
from .gpu import GPUSpec, a5000
from .host import CPUSpec, HostMemorySpec, host_dram_1tb, xeon_gold_6342
from .pcie import PCIeLink, gen3_x16


@dataclass(frozen=True)
class SystemSpec:
    """One complete training machine."""

    name: str
    cpu: CPUSpec
    host_memory: HostMemorySpec
    gpus: List[GPUSpec]
    csds: List[CSDSpec]
    #: The shared host<->expansion interconnect all storage traffic crosses.
    host_link: PCIeLink
    #: Per-GPU link to the host (dedicated root port in default topology).
    gpu_link: PCIeLink
    #: True when GPUs share the expansion uplink with the storage devices.
    gpus_on_expansion: bool = False
    #: Base platform cost (chassis, CPU, RAM, expansion), for Fig. 15.
    server_cost_usd: float = 45_000.0

    def __post_init__(self) -> None:
        if not self.gpus:
            raise HardwareConfigError(f"{self.name}: needs at least one GPU")
        if not self.csds:
            raise HardwareConfigError(
                f"{self.name}: needs at least one storage device")

    @property
    def num_csds(self) -> int:
        return len(self.csds)

    @property
    def aggregate_internal_read_bandwidth(self) -> float:
        """Sum of SSD->FPGA internal bandwidth across CSDs.

        This is the quantity that scales linearly with device count while
        :attr:`host_link` stays constant — the core argument of the paper.
        """
        return sum(csd.p2p_read_bandwidth for csd in self.csds)

    def total_cost_usd(self, as_plain_ssds: bool = False) -> float:
        """System cost; with ``as_plain_ssds`` CSDs are priced as plain SSDs
        of the same capacity (the baseline configuration of Fig. 15)."""
        storage = sum(
            (csd.ssd.cost_usd if as_plain_ssds else csd.cost_usd)
            for csd in self.csds)
        return (self.server_cost_usd + storage
                + sum(gpu.cost_usd for gpu in self.gpus))


def default_system(num_csds: int = 6, gpu: GPUSpec = None,
                   csd: CSDSpec = None) -> SystemSpec:
    """The paper's default machine: one GPU on its own root port, ``num_csds``
    SmartSSDs behind a PCIe Gen3 x16 expansion uplink."""
    gpu = gpu or a5000()
    csd = csd or smartssd()
    return SystemSpec(
        name=f"default-{num_csds}csd-{gpu.name}",
        cpu=xeon_gold_6342(),
        host_memory=host_dram_1tb(),
        gpus=[gpu],
        csds=[csd] * num_csds,
        host_link=gen3_x16(),
        gpu_link=gen3_x16(),
        gpus_on_expansion=False,
    )


def congested_system(num_gpus: int, num_csds: int = 10,
                     gpu: GPUSpec = None, csd: CSDSpec = None) -> SystemSpec:
    """The §VIII-A alternative: 1-3 single-slot GPUs inside the expansion,
    sharing its uplink with the CSDs (Fig. 17)."""
    from .gpu import a4000

    if not 1 <= num_gpus <= 3:
        raise HardwareConfigError(
            "congested topology supports 1-3 GPUs (chassis limit)")
    gpu = gpu or a4000()
    csd = csd or smartssd()
    return SystemSpec(
        name=f"congested-{num_gpus}gpu-{num_csds}csd",
        cpu=xeon_gold_6342(),
        host_memory=host_dram_1tb(),
        gpus=[gpu] * num_gpus,
        csds=[csd] * num_csds,
        host_link=gen3_x16(),
        gpu_link=gen3_x16(),
        gpus_on_expansion=True,
    )
