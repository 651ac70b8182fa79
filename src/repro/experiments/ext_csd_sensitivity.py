"""Extension experiment — sensitivity to the CSD product.

The paper builds on SmartSSD "but is not limited to certain products"
(§IX-A).  This study swaps in representative alternative CSDs from the
extended catalog and asks how the speedup responds to the two dimensions
a vendor controls: internal (flash + switch) bandwidth and accelerator
throughput.  The expected shape: faster internal paths raise the
Smart-Infinity speedup (the baseline is pinned by the *shared* host link
either way), which is the §VIII-C argument that CSDs get *more* valuable
as per-device bandwidth grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hw.catalog import get_csd
from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "ext_csd_sensitivity"

PRODUCTS = ("smartssd", "noload", "csd3000", "gen5")


@dataclass(frozen=True)
class CSDSensitivityResult:
    """Speedup and iteration time per CSD product."""

    speedups: Dict[str, float]
    iteration_times: Dict[str, float]
    internal_bandwidth: Dict[str, float]

    def faster_internal_path_helps(self) -> bool:
        """Speedup is monotone in the device's internal read bandwidth."""
        ordered = sorted(self.speedups,
                         key=lambda n: self.internal_bandwidth[n])
        values = [self.speedups[name] for name in ordered]
        return all(later >= earlier - 1e-9
                   for earlier, later in zip(values, values[1:]))

    def render(self) -> str:
        rows = []
        for name in sorted(self.speedups,
                           key=lambda n: self.internal_bandwidth[n]):
            rows.append((
                name,
                f"{self.internal_bandwidth[name] / 1e9:.1f} GB/s",
                f"{self.iteration_times[name]:.2f}s",
                f"{self.speedups[name]:.2f}x"))
        return render_table(
            ("CSD product", "internal read BW", "Smart iter",
             "speedup vs BASE"),
            rows, title="CSD product sensitivity (GPT-2 8.4B, 10 devices)")


def run(model_name: str = "gpt2-8.4b",
        num_csds: int = 10) -> CSDSensitivityResult:
    """Sweep the CSD product under the full Smart-Infinity stack."""
    workload = make_workload(get_model(model_name))
    speedups: Dict[str, float] = {}
    times: Dict[str, float] = {}
    bandwidth: Dict[str, float] = {}
    for name in PRODUCTS:
        csd = get_csd(name)
        system = default_system(num_csds=num_csds, csd=csd)
        base = simulate_iteration(system, workload, "baseline").total
        smart = simulate_iteration(system, workload, "su_o_c").total
        speedups[name] = base / smart
        times[name] = smart
        bandwidth[name] = csd.p2p_read_bandwidth
    return CSDSensitivityResult(speedups=speedups, iteration_times=times,
                                internal_bandwidth=bandwidth)
