"""Fig. 12 — applying SmartUpdate to other optimizers.

SGD-with-momentum and AdaGrad keep one moment instead of Adam's two, so
their offload volume is 3/4 of Adam's (4M vs 6M of optimizer state) — less
traffic for SmartUpdate to eliminate, hence slightly lower speedup.  The
functional kernels for all three pass the same bitwise sanity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..csd.hls import sanity_check_updater
from ..hw.topology import default_system
from ..nn.models import get_model
from ..optim import make_optimizer
from ..perf.scenarios import simulate_iteration
from ..perf.workload import make_workload
from .report import render_table

RESULT_STEM = "fig12_optimizers"

MODEL = "gpt2-4.0b"
OPTIMIZERS = ("adam", "sgd", "adagrad")


@dataclass(frozen=True)
class Fig12Result:
    """Speedup of full Smart-Infinity per optimizer (and states/param)."""

    speedups: Dict[str, Dict[int, float]]
    states_per_param: Dict[str, int]

    def adam_wins(self) -> bool:
        """Adam's extra state volume means the largest speedup (paper)."""
        return all(
            self.speedups["adam"][n] >= self.speedups[opt][n]
            for opt in ("sgd", "adagrad") for n in self.speedups["adam"])

    def render(self) -> str:
        counts = sorted(next(iter(self.speedups.values())))
        rows = [
            (opt, self.states_per_param[opt],
             *(f"{self.speedups[opt][n]:.2f}x" for n in counts))
            for opt in self.speedups
        ]
        return render_table(
            ("optimizer", "fp32 words/param",
             *(f"speedup @{n} SSDs" for n in counts)),
            rows, title="Fig 12: SmartUpdate with other optimizers")


def run(ssd_counts=(6, 10), batch_size: int = 4,
        verify_kernels: bool = True) -> Fig12Result:
    """Regenerate Fig. 12; optionally bit-verify each updater kernel."""
    speedups: Dict[str, Dict[int, float]] = {}
    states: Dict[str, int] = {}
    spec = get_model(MODEL)
    for optimizer_name in OPTIMIZERS:
        if verify_kernels:
            sanity_check_updater(make_optimizer(optimizer_name),
                                 num_elements=1024, num_steps=2)
        workload = make_workload(spec, batch_size=batch_size,
                                 optimizer=optimizer_name)
        states[optimizer_name] = workload.states_per_param
        speedups[optimizer_name] = {}
        for count in ssd_counts:
            system = default_system(num_csds=count)
            base = simulate_iteration(system, workload, "baseline").total
            smart = simulate_iteration(system, workload, "su_o_c").total
            speedups[optimizer_name][count] = base / smart
    return Fig12Result(speedups=speedups, states_per_param=states)
