"""Host-side components: CPU update engine and host DRAM.

In the ZeRO-Infinity baseline the *CPU* executes the optimizer step with an
AVX-vectorized kernel.  That kernel is memory-bandwidth-bound (it streams
parameter, momentum, variance and gradient vectors), so we model it as a
bytes/s engine over the touched optimizer bytes, the same way the FPGA
updater is modelled — which makes CPU-vs-FPGA update comparisons direct.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import HardwareConfigError

GB = 1e9


@dataclass(frozen=True)
class CPUSpec:
    """Host CPU as an optimizer-update engine."""

    name: str
    cores: int
    #: Effective streaming throughput of the AVX Adam kernel, bytes/s of
    #: optimizer state touched.  DeepSpeed's CPU-Adam reaches roughly DRAM
    #: bandwidth over a handful of cores.
    update_bandwidth: float
    cost_usd: float = 0.0

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.update_bandwidth <= 0:
            raise HardwareConfigError(f"{self.name}: invalid CPU spec")


@dataclass(frozen=True)
class HostMemorySpec:
    """Host DRAM capacity/bandwidth."""

    capacity_bytes: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth <= 0:
            raise HardwareConfigError("invalid host memory spec")


def xeon_gold_6342() -> CPUSpec:
    """Dual Xeon Gold 6342 (2 x 24C/48T), the paper's host CPU."""
    return CPUSpec(name="Xeon-Gold-6342-2S", cores=96,
                   update_bandwidth=24 * GB, cost_usd=0.0)


def host_dram_1tb() -> HostMemorySpec:
    """32 x 32 GB DDR4-3200, the paper's host memory configuration."""
    return HostMemorySpec(capacity_bytes=1024 * GB, bandwidth=200 * GB)
