"""Extension experiment — where does each method's time go?

Per-channel attribution behind the paper's narrative: the baseline is
bound by the shared host interconnect (Fig. 3b); SmartUpdate moves the
bottleneck onto the per-device NAND channels, which aggregate with device
count (§IV-A); SmartComp then thins the remaining host traffic until the
NAND/upstream path is all that is left (§VIII-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..perf.analysis import Observation, observe, resolve
from ..perf.scenarios import METHODS

RESULT_STEM = "ext_bottlenecks"


@dataclass(frozen=True)
class BottleneckResult:
    """Per-method channel attribution for one machine."""

    analyses: Dict[str, Observation]

    def baseline_bound_by_shared_link(self) -> bool:
        return self.analyses["baseline"].bottleneck.name.startswith(
            "host-link")

    def smart_bound_by_nand(self) -> bool:
        return all(
            self.analyses[m].bottleneck.name.startswith("ssd")
            for m in ("su", "su_o", "su_o_c"))

    def smart_sheds_shared_link(self) -> float:
        """Shared-link bytes of SU+O+C relative to the baseline's."""
        return (self.analyses["su_o_c"].shared_link_bytes()
                / self.analyses["baseline"].shared_link_bytes())

    def render(self) -> str:
        return "\n\n".join(analysis.render()
                           for analysis in self.analyses.values())


def run(model_name: str = "gpt2-8.4b",
        num_csds: int = 10) -> BottleneckResult:
    """Attribute each method's time to fabric channels."""
    system, workload = resolve(model_name, num_csds)
    return BottleneckResult(analyses={
        method: observe(system, workload, method) for method in METHODS})
