"""Fig. 17 — the congested multi-GPU expansion topology (§VIII-A).

One to three single-slot A4000 GPUs share the PCIe expansion's uplink with
the CSDs.  Tensor parallelism shrinks FW/BW compute, but parameter and
activation traffic now contends with storage traffic on the shared link,
inflating the "BW + Grad Offload" phase.  The paper still measures
1.66x-1.86x speedup with ten CSDs — smaller than the default topology's
~2x, because the performance depends on how the PCIe topology is wired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hw.topology import congested_system
from ..nn.models import get_model
from ..perf.scenarios import PhaseBreakdown, simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig17_multigpu"

MODEL = "gpt2-1.16b"


@dataclass(frozen=True)
class Fig17Result:
    """Per-GPU-count breakdowns for BASE and Smart-Infinity."""

    breakdowns: Dict[int, Dict[str, PhaseBreakdown]]

    def speedup(self, num_gpus: int) -> float:
        cell = self.breakdowns[num_gpus]
        return cell["baseline"].total / cell["smart"].total

    def all_speedups_positive_but_reduced(
            self, default_topology_speedup: float) -> bool:
        """Congestion keeps speedup > 1 but below the default topology's."""
        return all(1.0 < self.speedup(g) < default_topology_speedup
                   for g in self.breakdowns)

    def render(self) -> str:
        rows = []
        for num_gpus, cell in sorted(self.breakdowns.items()):
            for method, breakdown in cell.items():
                rows.append((num_gpus, method,
                             f"{breakdown.forward:.2f}",
                             f"{breakdown.backward_grad:.2f}",
                             f"{breakdown.update:.2f}",
                             f"{breakdown.total:.2f}",
                             f"{self.speedup(num_gpus):.2f}x"
                             if method == "smart" else ""))
        return render_table(
            ("#GPUs", "method", "FW", "BW+Grad", "Update", "total",
             "speedup"),
            rows, title="Fig 17: congested multi-GPU topology "
                        "(A4000s in the expansion, 10 CSDs)")


def run(num_csds: int = 10, batch_size: int = 4,
        gpu_counts=(1, 2, 3)) -> Fig17Result:
    """Regenerate Fig. 17."""
    workload = make_workload(get_model(MODEL), batch_size=batch_size)
    breakdowns = {}
    for num_gpus in gpu_counts:
        system = congested_system(num_gpus=num_gpus, num_csds=num_csds)
        breakdowns[num_gpus] = {
            "baseline": simulate_iteration(system, workload, "baseline"),
            "smart": simulate_iteration(system, workload, "su_o_c"),
        }
    return Fig17Result(breakdowns=breakdowns)
