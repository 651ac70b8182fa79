"""The benchmark harness's view of ``src/``, checked in tier-1.

``bench/`` is read-only to most changes, so a change that renames or
deletes what it uses would first fail in a benchmark run.  These tests
read ``bench/*.py`` with :mod:`ast` (never importing or editing them)
and check that what they name still exists.
"""

import ast
import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.nn import SequenceClassifier, bert_config
from repro.runtime import SmartInfinityEngine, TrainingConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parse(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def test_every_repro_import_in_bench_resolves():
    checked = 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(parse(path.name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names
                           if alias.name.split(".")[0] == "repro"]
                for module in modules:
                    importlib.import_module(module)
                    checked += 1
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name) or \
                        importlib.util.find_spec(
                            f"{node.module}.{alias.name}"), \
                        f"{path.name}: from {node.module} import {alias.name}"
                    checked += 1
    assert checked > 20


def _dict_keys(node, assigned):
    """Keys of a ``{...}`` literal or ``dict(base, k=v)`` call; a bare
    name base resolves through the module's own assignments."""
    if isinstance(node, ast.Dict):
        return [ast.literal_eval(key) for key in node.keys]
    if isinstance(node, ast.Name):
        return _dict_keys(assigned[node.id], assigned)
    assert isinstance(node, ast.Call) and node.func.id == "dict", \
        ast.dump(node)
    keys = [keyword.arg for keyword in node.keywords]
    for base in node.args:
        keys += _dict_keys(base, assigned)
    return keys


def _assignments(tree):
    return {target.id: node.value for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name)}


def test_bench_config_keys_are_training_config_fields():
    known = {field.name for field in fields(TrainingConfig)}
    workloads = _assignments(parse("workloads.py"))
    keys = [key for call in ast.walk(workloads["WORKLOADS"])
            if isinstance(call, ast.Call)
            for keyword in call.keywords if keyword.arg == "config"
            for key in _dict_keys(keyword.value, workloads)]
    names = [ast.literal_eval(key) for key in workloads["WORKLOADS"].keys]
    micro = _assignments(parse("micro.py"))
    for workload, *arms in (value.elts
                            for value in micro["PROBES"].values):
        assert ast.literal_eval(workload) in names
        for arm in arms:
            keys += _dict_keys(arm, micro)
    assert len(keys) > 20
    assert set(keys) - {"_session"} <= known, set(keys) - known


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def test_engine_flight_stats_the_bench_reads(tmp_path):
    """``bench/worker.py`` reads ``engine.flight.stats()
    ["events_recorded"]``, and ``engine.flight`` is None when the
    ``flight_recorder`` probe arm turns it off."""
    model = SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=1, num_heads=2,
                    max_seq_len=8), num_classes=2, seed=0)
    batch = (np.zeros((2, 8), dtype=np.int64), np.zeros(2, dtype=np.int64))
    for enabled in (True, False):
        with SmartInfinityEngine(
                model, loss_fn, str(tmp_path / str(enabled)),
                config=TrainingConfig(flight_recorder=enabled)) as engine:
            engine.train_step(*batch)
            if enabled:
                assert engine.flight.stats()["events_recorded"] > 0
            else:
                assert engine.flight is None
