"""Fig. 9 — breakdown and speedup of BASE / SU / SU+O / SU+O+C.

The paper's grid: GPT-2 (1.16B/4.0B/8.4B) and BERT (1.2B/4.0B/8.3B), each
with 6 and 10 SSDs/CSDs, three-phase breakdown per method.  Published
headline numbers: SU gives 1.18-1.24x (6 SSDs) and 1.54-1.60x (10 SSDs);
SU+O reaches 1.60-1.66x at 10; SU+O+C reaches 1.85-1.98x, and the speedup
trend is nearly identical across models because the bottleneck is storage
bandwidth, not model structure.

Each cell is produced through the telemetry attribution layer
(:func:`repro.telemetry.attribute_channels`): the phase breakdown is the
attribution's phase totals, and the cell additionally carries the
bottleneck verdict — the resource the paper would name when narrating
why that method is as fast as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.analysis import observe
from ..perf.scenarios import METHODS, PhaseBreakdown
from ..perf.workload import make_workload
from ..telemetry.attrib import BottleneckVerdict
from .report import render_table

RESULT_STEM = "fig09_ablation"

GRID_MODELS = ("gpt2-1.16b", "gpt2-4.0b", "gpt2-8.4b",
               "bert-1.2b", "bert-4.0b", "bert-8.3b")
SSD_COUNTS = (6, 10)


@dataclass(frozen=True)
class Fig9Result:
    """results[(model, num_ssds)][method] -> PhaseBreakdown."""

    results: Dict[Tuple[str, int], Dict[str, PhaseBreakdown]]
    #: bottlenecks[(model, num_ssds)][method] -> BottleneckVerdict.
    bottlenecks: Dict[Tuple[str, int], Dict[str, BottleneckVerdict]] = \
        field(default_factory=dict)

    def speedup(self, model: str, num_ssds: int, method: str) -> float:
        cell = self.results[(model, num_ssds)]
        return cell["baseline"].total / cell[method].total

    def speedup_range(self, num_ssds: int, method: str
                      ) -> Tuple[float, float]:
        """(min, max) speedup of a method across all models."""
        values = [self.speedup(model, num_ssds, method)
                  for model in self.models()]
        return min(values), max(values)

    def models(self) -> List[str]:
        return sorted({model for model, _n in self.results})

    def bottleneck(self, model: str, num_ssds: int,
                   method: str) -> BottleneckVerdict:
        return self.bottlenecks[(model, num_ssds)][method]

    def render(self) -> str:
        rows = []
        for (model, num_ssds), cell in sorted(self.results.items()):
            base = cell["baseline"]
            verdicts = self.bottlenecks.get((model, num_ssds), {})
            for method in METHODS:
                breakdown = cell[method]
                verdict = verdicts.get(method)
                rows.append((
                    model, num_ssds, method.upper().replace("_", "+"),
                    f"{breakdown.forward:.2f}",
                    f"{breakdown.backward_grad:.2f}",
                    f"{breakdown.update:.2f}",
                    f"{breakdown.total:.2f}",
                    f"{base.total / breakdown.total:.2f}x",
                    (f"{verdict.resource} {verdict.utilization:.0%}"
                     if verdict else "-")))
        return render_table(
            ("model", "#SSD", "method", "FW", "BW+Grad", "Update",
             "total", "speedup", "bottleneck"),
            rows, title="Fig 9: breakdown and speedup over BASE")


def _simulate_cell(system, workload) -> Tuple[
        Dict[str, PhaseBreakdown], Dict[str, BottleneckVerdict]]:
    """All methods on one (model, #SSD) point, via the attribution."""
    breakdowns: Dict[str, PhaseBreakdown] = {}
    verdicts: Dict[str, BottleneckVerdict] = {}
    for method in METHODS:
        attribution = observe(system, workload, method).attribution
        totals = attribution.phase_totals()
        breakdowns[method] = PhaseBreakdown(
            forward=totals.get("forward", 0.0),
            backward_grad=totals.get("backward_grad", 0.0),
            update=totals.get("update", 0.0))
        verdicts[method] = attribution.verdict()
    return breakdowns, verdicts


def run(models=GRID_MODELS, ssd_counts=SSD_COUNTS,
        batch_size: int = 4) -> Fig9Result:
    """Regenerate the Fig. 9 grid."""
    results = {}
    bottlenecks = {}
    for model_name in models:
        workload = make_workload(get_model(model_name),
                                 batch_size=batch_size)
        for num_ssds in ssd_counts:
            system = default_system(num_csds=num_ssds)
            cell, verdicts = _simulate_cell(system, workload)
            results[(model_name, num_ssds)] = cell
            bottlenecks[(model_name, num_ssds)] = verdicts
    return Fig9Result(results=results, bottlenecks=bottlenecks)
