"""Fig. 14 — accelerator module throughput vs SSD read/write.

The paper's point: the updater (> 7 GB/s) comfortably outruns the SSD, and
the decompressor slightly exceeds SSD read bandwidth, so neither module
ever throttles the storage pipeline.  We report both the *calibrated
hardware model* numbers (what the DES uses) and the *measured* throughput
of the functional numpy kernels on this machine (for transparency — the
emulator must also be fast enough not to distort functional experiments).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..compression.topk import compress_topk
from ..csd.kernels import DecompressorKernel, UpdaterKernel
from ..hw.csd import smartssd
from ..optim import Adam
from ..perf.analysis import observe, resolve
from .report import WALLCLOCK, render_table

RESULT_STEM = "fig14_throughput"

GB = 1e9


@dataclass(frozen=True)
class Fig14Result:
    """Modelled and measured module throughput (bytes/s)."""

    modelled: Dict[str, float]
    measured: Dict[str, float]
    #: Device-pipeline busy fractions from an attributed SU+O+C
    #: iteration: the utilization consequence of the bandwidth claim
    #: (the FPGA engines stay below the NAND channels).
    pipeline: Dict[str, float] = field(default_factory=dict)
    #: The same occupancy view under the interleaved schedule: the
    #: same device work packs into a shorter step, so every busy
    #: *fraction* rises while the ordering (storage above compute)
    #: and the conclusion — storage gates, the FPGA engines do not —
    #: are unchanged.
    pipeline_interleaved: Dict[str, float] = field(default_factory=dict)

    def updater_exceeds_ssd(self) -> bool:
        return (self.modelled["updater"] > self.modelled["ssd_read"]
                and self.modelled["updater"] > self.modelled["ssd_write"])

    def decompressor_covers_read(self) -> bool:
        return self.modelled["decompressor"] >= self.modelled["ssd_read"]

    def modules_never_gate(self) -> bool:
        """In the attributed run, neither FPGA engine is busier than
        the NAND read channel — storage, not compute, gates the
        pipeline (the figure's conclusion)."""
        if not self.pipeline:
            return True
        nand = self.pipeline.get("ssd0-read", 0.0)
        return (self.pipeline.get("csd0-updater", 0.0) <= nand
                and self.pipeline.get("csd0-decompressor", 0.0) <= nand)

    def render(self) -> str:
        rows = [(name, f"{value / GB:.2f} GB/s")
                for name, value in self.modelled.items()]
        parts = [render_table(("module", "throughput"), rows,
                              title="Fig 14 (hardware model)")]
        if self.pipeline:
            rows_c = [(name,
                       f"{value:.1%}",
                       (f"{self.pipeline_interleaved[name]:.1%}"
                        if name in self.pipeline_interleaved else "-"))
                      for name, value in sorted(self.pipeline.items())]
            parts.append(render_table(
                ("device channel/engine", "phased", "interleaved"),
                rows_c,
                title="Attributed SU+O+C pipeline occupancy (device 0, "
                      "busy fraction of step)"))
        if self.measured:
            rows_b = [(name, f"{value / GB:.2f} GB/s")
                      for name, value in self.measured.items()]
            parts.append(render_table(
                ("functional kernel", "throughput on this host"), rows_b,
                title=f"{WALLCLOCK}: functional emulator throughput "
                      "(numpy)"))
        return "\n\n".join(parts)


def _measure_updater(num_elements: int = 1 << 21,
                     repeats: int = 3) -> float:
    """Streamed optimizer-state bytes per second of the numpy updater."""
    rng = np.random.default_rng(0)
    kernel = UpdaterKernel(Adam(lr=1e-3))
    params = rng.standard_normal(num_elements).astype(np.float32)
    grads = rng.standard_normal(num_elements).astype(np.float32)
    state = kernel.optimizer.init_state(num_elements)
    kernel.run(params, grads, state, 1)  # warm-up
    start = time.perf_counter()
    for step in range(2, repeats + 2):
        kernel.run(params, grads, state, step)
    elapsed = time.perf_counter() - start
    streamed = 4 * (1 + kernel.optimizer.states_per_param) * num_elements
    return streamed * repeats / elapsed


def _measure_decompressor(num_elements: int = 1 << 21,
                          repeats: int = 3) -> float:
    """Dense output bytes per second of the numpy Top-K scatter."""
    rng = np.random.default_rng(1)
    gradient = rng.standard_normal(num_elements).astype(np.float32)
    compressed = compress_topk(gradient, volume_ratio=0.02)
    kernel = DecompressorKernel()
    output = np.zeros(num_elements, dtype=np.float32)
    kernel.run(compressed, output)  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        kernel.run(compressed, output)
    elapsed = time.perf_counter() - start
    return 4 * num_elements * repeats / elapsed


def _attributed_pipeline(model: str = "gpt2-4.0b",
                         num_csds: int = 10,
                         schedule: str = "phased") -> Dict[str, float]:
    """Busy fraction of device 0's channels in an attributed SU+O+C
    iteration — the occupancy view of the figure's bandwidth claim."""
    attribution = observe(*resolve(model, num_csds), "su_o_c",
                          schedule=schedule).attribution
    wanted = ("ssd0-read", "ssd0-write", "csd0-updater",
              "csd0-decompressor")
    return {name: attribution.usage[name].utilization
            for name in wanted if name in attribution.usage}


def run(measure: bool = True) -> Fig14Result:
    """Regenerate Fig. 14's comparison."""
    csd = smartssd()
    modelled = {
        "updater": csd.fpga.updater_bandwidth,
        "decompressor": csd.fpga.decompressor_bandwidth,
        "ssd_read": csd.ssd.read_bandwidth,
        "ssd_write": csd.ssd.write_bandwidth,
    }
    measured = {}
    if measure:
        measured["updater"] = _measure_updater()
        measured["decompressor"] = _measure_decompressor()
    return Fig14Result(
        modelled=modelled, measured=measured,
        pipeline=_attributed_pipeline(),
        pipeline_interleaved=_attributed_pipeline(
            schedule="interleaved"))
