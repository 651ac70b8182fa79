"""Machine-readable export of experiment results.

Downstream users (plotting scripts, regression dashboards) want the
regenerated figure data as JSON, not rendered text.  ``export_result``
converts any experiment's dataclass result into plain JSON types
(dataclasses -> dicts, a sweep's functional half included, numpy
scalars/arrays -> Python numbers/lists, tuple keys -> joined strings)
and ``export_all`` runs a set of registry entries, sharing one memo as
:func:`~repro.experiments.write_results` does, into one directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, Iterable, Optional

import numpy as np

from . import ALL_EXPERIMENTS, REGISTRY
from .paper import Memo, SweepResult


def to_jsonable(value: Any) -> Any:
    """Recursively convert experiment results to JSON-compatible types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {field.name: to_jsonable(getattr(value, field.name))
                   for field in dataclasses.fields(value)}
        if isinstance(value, SweepResult):  # read when asked, not a field
            payload["functional"] = to_jsonable(value.functional)
        return payload
    if isinstance(value, dict):
        return {_key(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Fall back to the repr for exotic leaves rather than failing.
    return repr(value)


def _key(key: Any) -> str:
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def export_result(result: Any, path: str) -> None:
    """Write one experiment result as JSON."""
    payload = to_jsonable(result)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def export_all(output_dir: str,
               experiment_ids: Optional[Iterable[str]] = None,
               ) -> Dict[str, str]:
    """Run experiments and export each result; returns id -> file path.

    By default runs every paper experiment; pass ``experiment_ids`` to
    restrict (e.g. skip the slow Table IV fine-tuning run).
    """
    os.makedirs(output_dir, exist_ok=True)
    ids = list(experiment_ids) if experiment_ids is not None else sorted(
        ALL_EXPERIMENTS)
    memo, paths = Memo(), {}
    for experiment_id in ids:
        path = os.path.join(output_dir, f"{experiment_id}.json")
        export_result(REGISTRY[experiment_id].run(memo), path)
        paths[experiment_id] = path
    return paths
