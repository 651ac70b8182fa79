"""Table III — FPGA resource utilization of the composed designs.

The HLS resource estimator composes the Adam updater (and the Top-K
decompressor on top) from component costs and reports utilization on the
SmartSSD's KU15P.  The paper's numbers:

===============  ======  ======  ======  ======
module           LUT     BRAM    URAM    DSP
===============  ======  ======  ======  ======
Adam             33.66%  27.13%  34.38%  11.03%
Adam w/ Top-K    34.12%  27.13%  35.94%  11.03%
===============  ======  ======  ======  ======
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..csd.hls import updater_design
from ..hw.fpga import ku15p
from .report import render_table

RESULT_STEM = "table3_resources"

#: The published utilization percentages.
PAPER_UTILIZATION = {
    "adam": {"LUT": 33.66, "BRAM": 27.13, "URAM": 34.38, "DSP": 11.03},
    "adam+topk": {"LUT": 34.12, "BRAM": 27.13, "URAM": 35.94, "DSP": 11.03},
}


@dataclass(frozen=True)
class Table3Result:
    """Estimated utilization per design vs the published numbers."""

    estimated: Dict[str, Dict[str, float]]

    def max_abs_error(self) -> float:
        """Largest |estimated - paper| percentage point across all cells."""
        worst = 0.0
        for design, cells in PAPER_UTILIZATION.items():
            for resource, paper_value in cells.items():
                worst = max(worst, abs(
                    self.estimated[design][resource] - paper_value))
        return worst

    def render(self) -> str:
        rows = []
        for design, cells in self.estimated.items():
            rows.append((design,
                         *(f"{cells[r]:.2f}% (paper {PAPER_UTILIZATION[design][r]:.2f}%)"
                           for r in ("LUT", "BRAM", "URAM", "DSP"))))
        return render_table(("module", "LUT", "BRAM", "URAM", "DSP"), rows,
                            title="Table III: KU15P resource utilization")


def run() -> Table3Result:
    """Regenerate Table III from the component-cost estimator."""
    fpga = ku15p()
    return Table3Result(estimated={
        "adam": updater_design("adam").utilization(fpga),
        "adam+topk": updater_design(
            "adam", with_decompressor=True).utilization(fpga),
    })
