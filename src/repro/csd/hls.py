"""HLS template layer: kernel registry, resource estimation, sanity checks.

The paper ships HLS templates so users can drop in custom updater or
decompressor logic (§VI, Fig. 8).  This module is the software analogue:

* a **registry** of kernel designs (updaters per optimizer, decompressors
  per compression scheme) composed of resource-costed components;
* a **resource estimator** that sums component costs and checks the design
  fits the target FPGA — reproducing Table III's utilization numbers for
  the Adam updater with and without the Top-K decompressor;
* a **sanity checker** that streams a candidate updater's logic chunk by
  chunk against its own flat result on random data before it is
  "deployed" (the paper's template includes the same).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..errors import KernelError
from ..hw.fpga import FPGAResources, FPGASpec
from ..optim import OPTIMIZERS
from ..optim.base import FlatOptimizer

# ----------------------------------------------------------------------
# component resource costs (calibrated so the composed Adam and
# Adam + Top-K designs reproduce Table III on the KU15P)
# ----------------------------------------------------------------------

#: Static platform shell: PCIe/DMA endpoints, DDR4 controller, XDMA.
SHELL = FPGAResources(luts=90_000, brams=167, urams=12, dsps=41)

#: One floating-point AXPBY lane (two multipliers + adder + registers).
AXPBY_LANE = FPGAResources(luts=1_100, brams=0, urams=0, dsps=3)

#: Streaming buffer set per PE (double-buffered BRAM + URAM staging).
PE_BUFFERS = FPGAResources(luts=500, brams=6, urams=1, dsps=2)

#: Per-design control/burst logic shared by the updater PEs.
UPDATER_CONTROL = FPGAResources(luts=18_900, brams=4, urams=0, dsps=0)

#: The Top-K decompressor: routing only (no arithmetic -> zero DSPs).
TOPK_DECOMPRESSOR = FPGAResources(luts=2_400, brams=0, urams=2, dsps=0)

#: PEs instantiated per updater design (calibrated for >7 GB/s at 250 MHz).
DEFAULT_NUM_PES = 16


@dataclass(frozen=True)
class KernelDesign:
    """A composed accelerator design: named modules with resource usage."""

    name: str
    modules: Dict[str, FPGAResources]

    @property
    def total(self) -> FPGAResources:
        total = FPGAResources(0, 0, 0, 0)
        for usage in self.modules.values():
            total = total + usage
        return total

    def utilization(self, fpga: FPGASpec) -> Dict[str, float]:
        """Percent utilization per resource class on ``fpga``."""
        return self.total.utilization_of(fpga.resources)

    def fits(self, fpga: FPGASpec) -> bool:
        return fpga.resources.fits(self.total)


def updater_design(optimizer_name: str,
                   num_pes: int = DEFAULT_NUM_PES,
                   with_decompressor: bool = False) -> KernelDesign:
    """Compose an updater design for a registered optimizer.

    Optimizers with more moving averages need more AXPBY lanes per PE:
    Adam/AdamW use two moments (two lanes + the parameter update lane),
    SGD-momentum and AdaGrad one moment (two lanes total).
    """
    if optimizer_name.lower() not in OPTIMIZERS:
        raise KernelError(f"unknown optimizer {optimizer_name!r}")
    if num_pes < 1:
        raise KernelError("need at least one PE")
    lanes_per_pe = 3 if optimizer_name.lower() in ("adam", "adamw") else 2

    modules: Dict[str, FPGAResources] = {"shell": SHELL,
                                         "control": UPDATER_CONTROL}
    pe_usage = FPGAResources(0, 0, 0, 0)
    for _ in range(num_pes):
        pe = PE_BUFFERS
        for _lane in range(lanes_per_pe):
            pe = pe + AXPBY_LANE
        pe_usage = pe_usage + pe
    modules[f"updater[{optimizer_name} x{num_pes}PE]"] = pe_usage
    # URAM staging for the subgroup-resident vectors scales with the number
    # of state words (Adam: param+m+v -> more URAM than SGD).
    state_words = OPTIMIZERS[optimizer_name.lower()]().states_per_param
    modules["dram_staging"] = FPGAResources(
        luts=6_000, brams=0, urams=4 * (1 + state_words), dsps=0)
    name = f"{optimizer_name}-updater"
    if with_decompressor:
        modules["topk_decompressor"] = TOPK_DECOMPRESSOR
        name += "+topk"
    return KernelDesign(name=name, modules=modules)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_DesignFactory = Callable[[], KernelDesign]
_REGISTRY: Dict[str, _DesignFactory] = {}


def register_design(name: str, factory: _DesignFactory) -> None:
    """Register a custom design (the user-level extension hook of Fig. 8)."""
    if name in _REGISTRY:
        raise KernelError(f"design {name!r} already registered")
    _REGISTRY[name] = factory


def get_design(name: str) -> KernelDesign:
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KernelError(f"unknown design {name!r}; known: {known}")


def registered_designs() -> List[str]:
    return sorted(_REGISTRY)


for _opt in ("adam", "adamw", "sgd", "adagrad"):
    register_design(f"{_opt}-updater",
                    lambda _opt=_opt: updater_design(_opt))
    register_design(f"{_opt}-updater+topk",
                    lambda _opt=_opt: updater_design(
                        _opt, with_decompressor=True))


# ----------------------------------------------------------------------
# sanity checker
# ----------------------------------------------------------------------

def sanity_check_updater(optimizer: FlatOptimizer,
                         num_elements: int = 4096, num_steps: int = 3,
                         chunk_elements: int = 128, seed: int = 0,
                         ) -> None:
    """Verify an optimizer's update is element-wise, bit for bit.

    Streams ``chunk_elements``-sized chunks through ``optimizer.step``,
    as the hardware streams a subgroup through its BRAM buffer, and
    compares parameters and states with one flat ``step``.  Shards,
    subgroups and the updater kernel's single pass per subgroup all
    rely on this contract.  Raises :class:`KernelError` on a mismatch:
    the "sanity checker of logic" of the paper's HLS templates, run
    before a custom updater is used for training.
    """
    if chunk_elements <= 0:
        raise KernelError("chunk_elements must be positive")
    rng = np.random.default_rng(seed)
    flat_params = rng.standard_normal(num_elements).astype(np.float32)
    chunked_params = flat_params.copy()
    flat_state = optimizer.init_state(num_elements)
    chunked_state = optimizer.init_state(num_elements)

    for step in range(1, num_steps + 1):
        grads = rng.standard_normal(num_elements).astype(np.float32)
        optimizer.step(flat_params, grads.copy(), flat_state, step)
        streamed = grads.copy()
        for start in range(0, num_elements, chunk_elements):
            stop = min(start + chunk_elements, num_elements)
            optimizer.step(
                chunked_params[start:stop], streamed[start:stop],
                {name: buf[start:stop]
                 for name, buf in chunked_state.items()}, step)
        if not np.array_equal(flat_params, chunked_params):
            raise KernelError(
                f"chunked update diverged from the flat reference at "
                f"step {step}: max |diff| = "
                f"{np.abs(flat_params - chunked_params).max()}")
        for name in flat_state:
            if not np.array_equal(flat_state[name], chunked_state[name]):
                raise KernelError(
                    f"optimizer state {name!r} diverged at step {step}")
