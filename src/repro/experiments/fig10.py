"""Fig. 10 — scalability to larger models (16.6B to 33.0B).

Smart-Infinity's speedup over the baseline stays stable as the model grows
because every traffic term is linear in the parameter count; the paper
quotes 1.37x (6 SSDs) and 1.88x (10 SSDs) even at GPT-2 33.0B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig10_large_models"

LARGE_MODELS = ("gpt2-16.6b", "gpt2-24.6b", "gpt2-33.0b")
SSD_COUNTS = (6, 10)


@dataclass(frozen=True)
class Fig10Result:
    """speedups[(model, num_ssds)] = Smart-Infinity speedup over BASE."""

    speedups: Dict[Tuple[str, int], float]
    totals: Dict[Tuple[str, int], Tuple[float, float]]

    def spread(self, num_ssds: int) -> float:
        """Max - min speedup across model sizes (stability check)."""
        values = [s for (_m, n), s in self.speedups.items()
                  if n == num_ssds]
        return max(values) - min(values)

    def render(self) -> str:
        rows = []
        for (model, num_ssds), speedup in sorted(self.speedups.items()):
            base_total, smart_total = self.totals[(model, num_ssds)]
            rows.append((model, num_ssds, f"{base_total:.1f}s",
                         f"{smart_total:.1f}s", f"{speedup:.2f}x"))
        return render_table(
            ("model", "#SSD", "BASE iter", "Smart-Infinity iter",
             "speedup"),
            rows, title="Fig 10: scalability to larger models")


def run(models=LARGE_MODELS, ssd_counts=SSD_COUNTS,
        batch_size: int = 4) -> Fig10Result:
    """Regenerate Fig. 10 (full Smart-Infinity = SU+O+C vs BASE)."""
    speedups = {}
    totals = {}
    for model_name in models:
        workload = make_workload(get_model(model_name),
                                 batch_size=batch_size)
        for num_ssds in ssd_counts:
            system = default_system(num_csds=num_ssds)
            base = simulate_iteration(system, workload, "baseline")
            smart = simulate_iteration(system, workload, "su_o_c")
            speedups[(model_name, num_ssds)] = base.total / smart.total
            totals[(model_name, num_ssds)] = (base.total, smart.total)
    return Fig10Result(speedups=speedups, totals=totals)
