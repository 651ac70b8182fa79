"""Extension experiment — where does each method's time go?

Per-channel attribution behind the paper's narrative: the baseline is
bound by the shared host interconnect (Fig. 3b); SmartUpdate moves the
bottleneck onto the per-device NAND channels, which aggregate with device
count (§IV-A); SmartComp then thins the remaining host traffic until the
NAND/upstream path is all that is left (§VIII-B).

Not a :class:`~.paper.Sweep` row: its text is each method's
:meth:`Observation.render` (verdict, busiest channels, critical path),
which needs the whole observation, not a point's cells, and is no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..perf.analysis import Observation, observe, resolve
from ..perf.scenarios import METHODS
from .paper import Memo

RESULT_STEM = "ext_bottlenecks"


@dataclass(frozen=True)
class BottleneckResult:
    """Per-method channel attribution for GPT-2 8.4B on 10 CSDs."""

    analyses: Dict[str, Observation]

    def render(self) -> str:
        return "\n\n".join(analysis.render()
                           for analysis in self.analyses.values())


def run(memo: Optional[Memo] = None) -> BottleneckResult:
    """Attribute each method's time to fabric channels (``memo``: the
    registry's, which holds no observation to share)."""
    system, workload = resolve("gpt2-8.4b", 10)
    return BottleneckResult(analyses={
        method: observe(system, workload, method) for method in METHODS})
