"""The paper's tables and figures by id.  The DES sweeps are rows of
:data:`.paper.SWEEPS` (next to ``PAPER_TARGETS``, the printed numbers the
tests read their bands from); the rest keep a module each.  Each entry's
``run().render()`` is ``results/<RESULT_STEM>.txt``, written by
:func:`write_results` (``python -m repro experiment --write results``)
and held byte for byte by ``tests/test_golden_results.py``.
"""

import os
from typing import Dict, Iterable, Optional

from . import (ext_bottlenecks, ext_modelcomp, fig14, paper, table1, table3,
               table4)
from .paper import PAPER_TARGETS, SWEEPS, Memo, Sweep
from .report import WALLCLOCK, fmt_bytes, pinned, render_table

#: Extension studies beyond the paper's evaluation section.
EXTENSION_EXPERIMENTS = {
    "ext_bottlenecks": ext_bottlenecks, "ext_modelcomp": ext_modelcomp,
    "ext_csd_sensitivity": SWEEPS["ext_csd_sensitivity"]}

#: The paper's tables and figures: id -> module or sweep.
ALL_EXPERIMENTS = {"table1": table1, "table3": table3, "fig14": fig14,
                   "table4": table4, **{
                       figure: sweep for figure, sweep in SWEEPS.items()
                       if figure.startswith("fig")}}

#: Everything ``python -m repro experiment`` can run.
REGISTRY = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS,
            "paper_targets": paper}


def write_results(directory: str,
                  experiment_ids: Optional[Iterable[str]] = None
                  ) -> Dict[str, str]:
    """Run experiments (default: all) and write each one's result file
    under ``directory``; returns id -> path.  The DES sweeps and
    ``paper_targets`` share one :class:`~.paper.Memo`, so each distinct
    point is simulated, and each sweep run, once per call."""
    os.makedirs(directory, exist_ok=True)
    memo, paths = Memo(), {}
    for experiment_id in experiment_ids or REGISTRY:
        module = REGISTRY[experiment_id]
        result = (module.run(memo) if isinstance(module, Sweep)
                  or module is paper else module.run())
        path = os.path.join(directory, module.RESULT_STEM + ".txt")
        with open(path, "w") as handle:
            handle.write(result.render() + "\n")
        paths[experiment_id] = path
    return paths


__all__ = ["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS", "PAPER_TARGETS",
           "REGISTRY", "SWEEPS", "WALLCLOCK", "ext_bottlenecks",
           "ext_modelcomp", "fig14", "fmt_bytes", "paper", "pinned",
           "render_table", "table1", "table3", "table4", "write_results"]
