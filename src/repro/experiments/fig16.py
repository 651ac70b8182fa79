"""Fig. 16 — training-time sensitivity to the Top-K compression ratio.

Lower ratios (less data on the wire) buy gradually more speedup; the paper
sweeps 1-10% volume and finds the curve flattens near the default 2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..hw.topology import default_system
from ..nn.models import get_model
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig16_ratio"

MODEL = "gpt2-4.0b"
RATIOS = (0.01, 0.02, 0.05, 0.10)


@dataclass(frozen=True)
class Fig16Result:
    """Speedup over the baseline per compression ratio."""

    speedups: Dict[float, float]
    uncompressed_speedup: float

    def monotone_nonincreasing(self) -> bool:
        """Smaller ratio never loses to a larger one (within the sweep)."""
        ordered = [self.speedups[r] for r in sorted(self.speedups)]
        return all(earlier >= later - 1e-9
                   for earlier, later in zip(ordered, ordered[1:]))

    def compression_always_helps(self) -> bool:
        return all(value >= self.uncompressed_speedup
                   for value in self.speedups.values())

    def render(self) -> str:
        rows = [("none (SU+O)", f"{self.uncompressed_speedup:.2f}x")]
        rows += [(f"{ratio:.0%}", f"{self.speedups[ratio]:.2f}x")
                 for ratio in sorted(self.speedups)]
        return render_table(
            ("compression ratio", "speedup over BASE"), rows,
            title="Fig 16: sensitivity to Top-K compression ratio "
                  "(10 SSDs)")


def run(num_ssds: int = 10, batch_size: int = 4,
        ratios=RATIOS) -> Fig16Result:
    """Regenerate Fig. 16."""
    workload = make_workload(get_model(MODEL), batch_size=batch_size)
    system = default_system(num_csds=num_ssds)
    base = simulate_iteration(system, workload, "baseline").total
    plain = simulate_iteration(system, workload, "su_o").total
    speedups = {}
    for ratio in ratios:
        smart = simulate_iteration(system, workload, "su_o_c",
                                   compression_ratio=ratio).total
        speedups[ratio] = base / smart
    return Fig16Result(speedups=speedups,
                       uncompressed_speedup=base / plain)
