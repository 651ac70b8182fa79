"""Per-experiment reproduction modules (one per paper table/figure).

Every module has ``run()`` returning a result with ``render()``, and a
``RESULT_STEM``: its committed output is ``results/<RESULT_STEM>.txt``,
written by :func:`write_results` (``python -m repro experiment --write
results``) and held byte for byte by ``tests/test_golden_results.py``.
"""

import os
from typing import Dict, Iterable, Optional

from . import (ext_bottlenecks, ext_csd_sensitivity, ext_modelcomp, fig3,
               fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
               fig17, table1, table3, table4)
from .report import WALLCLOCK, fmt_bytes, pinned, render_table

#: Extension studies beyond the paper's evaluation section.
EXTENSION_EXPERIMENTS = {
    "ext_bottlenecks": ext_bottlenecks,
    "ext_csd_sensitivity": ext_csd_sensitivity,
    "ext_modelcomp": ext_modelcomp,
}

#: The paper's tables and figures: id -> module.
ALL_EXPERIMENTS = {
    "fig3": fig3,
    "table1": table1,
    "table3": table3,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "table4": table4,
}

#: Everything ``python -m repro experiment`` can run.
REGISTRY = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}


def write_results(directory: str,
                  experiment_ids: Optional[Iterable[str]] = None
                  ) -> Dict[str, str]:
    """Run experiments (default: all) and write each one's result file
    under ``directory``; returns id -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for experiment_id in experiment_ids or REGISTRY:
        module = REGISTRY[experiment_id]
        path = os.path.join(directory, module.RESULT_STEM + ".txt")
        with open(path, "w") as handle:
            handle.write(module.run().render() + "\n")
        paths[experiment_id] = path
    return paths


__all__ = (["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS", "REGISTRY",
            "WALLCLOCK", "fmt_bytes", "pinned", "render_table",
            "write_results"]
           + sorted(REGISTRY))
