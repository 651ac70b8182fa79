"""The paper's tables and figures by id.  Every result but the bottleneck
study is a row of :data:`.paper.SWEEPS` (next to ``PAPER_TARGETS``, the
printed numbers the tests read their bands from); ``ext_bottlenecks``,
whose text is per-method observation reports rather than tables, keeps a
module.  Each entry's ``run(memo).render()`` is
``results/<RESULT_STEM>.txt``, written by :func:`write_results`
(``python -m repro experiment --write results``) and held byte for byte
by ``tests/test_golden_results.py``.
"""

import os
from typing import Dict, Iterable, Optional

from . import ext_bottlenecks, paper
from .paper import PAPER_TARGETS, SWEEPS, Memo
from .report import WALLCLOCK, fmt_bytes, pinned, render_table

#: Extension studies beyond the paper's evaluation section.
EXTENSION_EXPERIMENTS = {
    "ext_bottlenecks": ext_bottlenecks, **{
        figure: sweep for figure, sweep in SWEEPS.items()
        if figure.startswith("ext_")}}

#: The paper's tables and figures: id -> sweep.
ALL_EXPERIMENTS = {figure: sweep for figure, sweep in SWEEPS.items()
                   if not figure.startswith("ext_")}

#: Everything ``python -m repro experiment`` can run.
REGISTRY = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS,
            "paper_targets": paper}


def write_results(directory: str,
                  experiment_ids: Optional[Iterable[str]] = None
                  ) -> Dict[str, str]:
    """Run experiments (default: all) and write each one's result file
    under ``directory``; returns id -> path.  The entries share one
    :class:`~.paper.Memo`, so each distinct point is simulated, and each
    sweep run (its hook included), once per call."""
    os.makedirs(directory, exist_ok=True)
    memo, paths = Memo(), {}
    for experiment_id in experiment_ids or REGISTRY:
        entry = REGISTRY[experiment_id]
        path = os.path.join(directory, entry.RESULT_STEM + ".txt")
        with open(path, "w") as handle:
            handle.write(entry.run(memo).render() + "\n")
        paths[experiment_id] = path
    return paths


__all__ = ["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS", "PAPER_TARGETS",
           "REGISTRY", "SWEEPS", "WALLCLOCK", "ext_bottlenecks",
           "fmt_bytes", "paper", "pinned", "render_table", "write_results"]
