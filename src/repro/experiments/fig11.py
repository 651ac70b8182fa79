"""Fig. 11 — scaling with the number of CSDs and GPU grade.

(a) Throughput (normalized to the 1-SSD baseline) as devices scale from 1
to 10, for the A5000 and A100 systems: the baseline saturates once RAID0
reads hit the shared interconnect (~4 SSDs) while Smart-Infinity keeps
scaling almost linearly with its aggregate internal bandwidth.

(b) Phase breakdown with ten devices on both GPUs: the faster GPU shrinks
FW/BW, making the transfer phases relatively larger, so Smart-Infinity's
speedup is *higher* on the A100 — up to the paper's headline 2.11x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..hw.gpu import GPUSpec, a100_40g, a5000
from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.scenarios import PhaseBreakdown, simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig11_scaling"

MODEL = "gpt2-4.0b"


@dataclass(frozen=True)
class Fig11Result:
    """Normalized scaling series per GPU plus 10-SSD breakdowns."""

    #: series[gpu_name][method] = list over 1..max_ssds of normalized
    #: throughput (1-SSD baseline == 1.0).
    series: Dict[str, Dict[str, List[float]]]
    #: breakdowns[gpu_name][method] at the maximum device count.
    breakdowns: Dict[str, Dict[str, PhaseBreakdown]]

    def speedup_at(self, gpu_name: str, num_ssds: int) -> float:
        cell = self.series[gpu_name]
        return (cell["smart"][num_ssds - 1]
                / cell["baseline"][num_ssds - 1])

    def baseline_saturates(self, gpu_name: str,
                           tolerance: float = 0.03) -> bool:
        """Baseline gains < tolerance from 6 to 10 devices."""
        curve = self.series[gpu_name]["baseline"]
        return curve[-1] <= curve[5] * (1 + tolerance)

    def smart_scales(self, gpu_name: str) -> bool:
        """Smart-Infinity at 10 devices is >= 1.8x its 4-device point."""
        curve = self.series[gpu_name]["smart"]
        return curve[9] >= 1.8 * curve[3]

    def render(self) -> str:
        parts = []
        for gpu_name, cell in self.series.items():
            rows = [(n + 1, f"{cell['baseline'][n]:.2f}",
                     f"{cell['smart'][n]:.2f}",
                     f"{cell['smart'][n] / cell['baseline'][n]:.2f}x")
                    for n in range(len(cell["baseline"]))]
            parts.append(render_table(
                ("#SSDs", "BASE", "Smart-Infinity", "speedup"), rows,
                title=f"Fig 11(a): normalized throughput, {gpu_name}"))
        rows_b = []
        for gpu_name, cell in self.breakdowns.items():
            for method, breakdown in cell.items():
                rows_b.append((gpu_name, method,
                               f"{breakdown.forward:.2f}",
                               f"{breakdown.backward_grad:.2f}",
                               f"{breakdown.update:.2f}",
                               f"{breakdown.total:.2f}"))
        parts.append(render_table(
            ("GPU", "method", "FW", "BW+Grad", "Update", "total"),
            rows_b, title="Fig 11(b): breakdown with 10 SSDs"))
        return "\n\n".join(parts)


def run(max_ssds: int = 10, batch_size: int = 4,
        gpus: Tuple[GPUSpec, ...] = None) -> Fig11Result:
    """Regenerate both panels of Fig. 11."""
    gpus = gpus or (a5000(), a100_40g())
    workload = make_workload(get_model(MODEL), batch_size=batch_size)
    series: Dict[str, Dict[str, List[float]]] = {}
    breakdowns: Dict[str, Dict[str, PhaseBreakdown]] = {}
    for gpu in gpus:
        base_times = []
        smart_times = []
        for count in range(1, max_ssds + 1):
            system = default_system(num_csds=count, gpu=gpu)
            base_times.append(
                simulate_iteration(system, workload, "baseline").total)
            smart_times.append(
                simulate_iteration(system, workload, "su_o_c").total)
        reference = base_times[0]
        series[gpu.name] = {
            "baseline": [reference / t for t in base_times],
            "smart": [reference / t for t in smart_times],
        }
        system = default_system(num_csds=max_ssds, gpu=gpu)
        breakdowns[gpu.name] = {
            "baseline": simulate_iteration(system, workload, "baseline"),
            "smart": simulate_iteration(system, workload, "su_o_c"),
        }
    return Fig11Result(series=series, breakdowns=breakdowns)
