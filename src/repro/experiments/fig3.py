"""Fig. 3 — motivation: (a) baseline time breakdown, (b) RAID0 saturation.

(a) With a single NVMe SSD, the update phase (including optimizer-state
upload/offload) consumes the overwhelming majority of training time across
model sizes — the paper reports over 80% and "more than 88% of total
training time is consumed transferring data from/to the storage".

(b) Throwing more SSDs at the problem via software RAID0 saturates once
the aggregate member bandwidth reaches the shared host interconnect
(around four SSDs) — the motivation for going near-storage at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.scenarios import PhaseBreakdown, simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig03_motivation"

MOTIVATION_MODELS = ("gpt2-1.16b", "gpt2-4.0b", "gpt2-8.4b")


@dataclass(frozen=True)
class Fig3Result:
    """Breakdown per model (a) and RAID0 speedup series (b)."""

    breakdowns: Dict[str, PhaseBreakdown]
    raid_speedups: List[float]

    def update_fraction(self, model_name: str) -> float:
        return self.breakdowns[model_name].fractions()["update"]

    def saturation_ssd_count(self, tolerance: float = 0.02) -> int:
        """First SSD count whose speedup is within ``tolerance`` of the
        10-SSD plateau."""
        plateau = self.raid_speedups[-1]
        for index, speedup in enumerate(self.raid_speedups):
            if speedup >= plateau * (1.0 - tolerance):
                return index + 1
        return len(self.raid_speedups)

    def render(self) -> str:
        rows_a = []
        for name, breakdown in self.breakdowns.items():
            frac = breakdown.fractions()
            rows_a.append((name, f"{breakdown.total:.2f}s",
                           f"{frac['forward']:.1%}",
                           f"{frac['backward_grad']:.1%}",
                           f"{frac['update']:.1%}"))
        part_a = render_table(
            ("model", "iter time", "FW", "BW+Grad", "Update+Opt"),
            rows_a, title="Fig 3(a): baseline breakdown, 1 SSD")
        rows_b = [(n + 1, f"{speedup:.2f}x")
                  for n, speedup in enumerate(self.raid_speedups)]
        part_b = render_table(("#SSDs (RAID0)", "speedup"), rows_b,
                              title="Fig 3(b): RAID0 scaling of baseline")
        return part_a + "\n\n" + part_b


def run(max_ssds: int = 10, batch_size: int = 4) -> Fig3Result:
    """Regenerate both panels of Fig. 3."""
    breakdowns = {}
    for name in MOTIVATION_MODELS:
        workload = make_workload(get_model(name), batch_size=batch_size)
        breakdowns[name] = simulate_iteration(
            default_system(num_csds=1), workload, "baseline")

    workload = make_workload(get_model("gpt2-4.0b"), batch_size=batch_size)
    times = [
        simulate_iteration(default_system(num_csds=n), workload,
                           "baseline").total
        for n in range(1, max_ssds + 1)
    ]
    speedups = [times[0] / t for t in times]
    return Fig3Result(breakdowns=breakdowns, raid_speedups=speedups)
