"""GPU device model.

For storage-offloaded training the GPU matters through two numbers: how fast
it executes the transformer forward/backward FLOPs (mixed-precision tensor
throughput times an achievable-efficiency factor) and how much memory it has
(which bounds the block size the runtime streams through it).  The specs
below are the three GPUs used in the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import HardwareConfigError

GB = 1e9
TFLOP = 1e12


@dataclass(frozen=True)
class GPUSpec:
    """Compute/memory description of one GPU."""

    name: str
    memory_bytes: float
    #: Peak mixed-precision (FP16 tensor-core) throughput in FLOP/s.
    peak_flops: float
    #: Fraction of peak achieved on transformer training kernels.
    efficiency: float = 0.65
    cost_usd: float = 2000.0

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.peak_flops <= 0:
            raise HardwareConfigError(f"{self.name}: invalid GPU spec")
        if not 0 < self.efficiency <= 1:
            raise HardwareConfigError(
                f"{self.name}: efficiency must be in (0, 1]")

    @property
    def sustained_flops(self) -> float:
        """Achievable FLOP/s on transformer training workloads."""
        return self.peak_flops * self.efficiency

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise HardwareConfigError(f"negative flops: {flops}")
        return flops / self.sustained_flops


def a5000() -> GPUSpec:
    """NVIDIA RTX A5000 (24 GB), the paper's default training GPU."""
    return GPUSpec(name="RTX-A5000", memory_bytes=24 * GB,
                   peak_flops=111 * TFLOP, cost_usd=2000.0)


def a100_40g() -> GPUSpec:
    """NVIDIA A100 40 GB, the paper's higher-end GPU.

    Achievable efficiency is set below the A5000's: at the batch size of 4
    used throughout the evaluation, the larger tensor-core array is harder
    to saturate.
    """
    return GPUSpec(name="A100-40GB", memory_bytes=40 * GB,
                   peak_flops=312 * TFLOP, efficiency=0.5,
                   cost_usd=7000.0)


def a4000() -> GPUSpec:
    """NVIDIA RTX A4000 (16 GB, single-slot), used in the congested
    multi-GPU expansion topology of the paper's discussion section."""
    return GPUSpec(name="RTX-A4000", memory_bytes=16 * GB,
                   peak_flops=76 * TFLOP, cost_usd=1100.0)


#: Catalog names the CLI's ``--gpu`` accepts, and what each one builds.
GPUS = {"a5000": a5000, "a100": a100_40g, "a4000": a4000}
