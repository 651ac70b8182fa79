"""Fig. 15 — system cost efficiency (GFLOPS/$).

SmartSSDs cost ~6x a plain SSD of the same capacity, so with 1-3 devices
the baseline is more cost-efficient; from ~4 devices the speedup overtakes
the premium and Smart-Infinity's GFLOPS/$ keeps rising through 10 devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.cost import CostEfficiency, cost_efficiency
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig15_cost"

MODEL = "gpt2-4.0b"


@dataclass(frozen=True)
class Fig15Result:
    """Cost-efficiency series for BASE and Smart-Infinity."""

    series: Dict[str, List[CostEfficiency]]

    def crossover_device_count(self) -> int:
        """First device count where Smart-Infinity's GFLOPS/$ wins."""
        for base, smart in zip(self.series["baseline"], self.series["smart"]):
            if smart.gflops_per_dollar > base.gflops_per_dollar:
                return smart.num_devices
        return -1

    def smart_keeps_rising(self) -> bool:
        """Smart GFLOPS/$ increases monotonically past the crossover."""
        values = [point.gflops_per_dollar
                  for point in self.series["smart"]]
        crossover = self.crossover_device_count()
        if crossover < 0:
            return False
        tail = values[crossover - 1:]
        return all(later >= earlier
                   for earlier, later in zip(tail, tail[1:]))

    def render(self) -> str:
        rows = []
        for base, smart in zip(self.series["baseline"],
                               self.series["smart"]):
            rows.append((
                base.num_devices,
                f"${base.system_cost_usd:,.0f}",
                f"{base.gflops_per_dollar:.3f}",
                f"${smart.system_cost_usd:,.0f}",
                f"{smart.gflops_per_dollar:.3f}",
                "smart" if smart.gflops_per_dollar
                > base.gflops_per_dollar else "base"))
        return render_table(
            ("#devices", "BASE cost", "BASE GFLOPS/$", "Smart cost",
             "Smart GFLOPS/$", "winner"),
            rows, title="Fig 15: cost efficiency (GPT-2 4.0B, A5000)")


def run(max_devices: int = 10, batch_size: int = 4) -> Fig15Result:
    """Regenerate Fig. 15."""
    workload = make_workload(get_model(MODEL), batch_size=batch_size)
    series: Dict[str, List[CostEfficiency]] = {"baseline": [], "smart": []}
    for count in range(1, max_devices + 1):
        system = default_system(num_csds=count)
        base = simulate_iteration(system, workload, "baseline")
        smart = simulate_iteration(system, workload, "su_o_c")
        series["baseline"].append(
            cost_efficiency(system, workload, "baseline", base))
        series["smart"].append(
            cost_efficiency(system, workload, "su_o_c", smart))
    return Fig15Result(series=series)
