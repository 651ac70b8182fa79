"""Small-surface tests: stats helpers, report rendering, versioning,
and cross-layer consistency checks."""

import numpy as np
import pytest

import repro
from repro.errors import TrainingError
from repro.experiments.report import fmt_bytes, render_table
from repro.runtime.stats import IterationTraffic, expected_traffic


# ----------------------------------------------------------------------
# version / package
# ----------------------------------------------------------------------
def test_version_is_exposed():
    assert repro.__version__.count(".") == 2


def test_public_api_importable():
    from repro import (BaselineOffloadEngine, HostOffloadEngine,
                       SmartInfinityEngine, TrainingConfig)
    assert all((BaselineOffloadEngine, HostOffloadEngine,
                SmartInfinityEngine, TrainingConfig))


def test_tracked_surface_numbers():
    """The numbers every CHANGES.md entry quotes, pinned: a PR that
    moves one edits it here, in the same diff."""
    import re
    from dataclasses import fields
    from pathlib import Path

    import repro.api
    import repro.telemetry
    from repro.cli import _build_parser

    root = Path(__file__).resolve().parents[1]
    subcommands = next(
        action.choices for action in _build_parser()._actions
        if getattr(action, "choices", None)
        and "simulate" in action.choices)
    step_bodies = [
        str(path.relative_to(root))
        for path in sorted((root / "src/repro/runtime").glob("*.py"))
        for _ in re.finditer(r"^\s*def _step_impl\b", path.read_text(),
                             re.MULTILINE)]
    ci = (root / ".github/workflows/ci.yml").read_text()
    assert {
        "TrainingConfig fields": len(fields(repro.api.TrainingConfig)),
        "repro.api names": len(repro.api.__all__),
        "repro.telemetry names": len(repro.telemetry.__all__),
        "CLI subcommands": len(subcommands),
        "CI run steps": len(re.findall(r"^\s+run:", ci, re.MULTILINE)),
        "step bodies": step_bodies,
    } == {
        "TrainingConfig fields": 23,
        "repro.api names": 9,
        "repro.telemetry names": 63,
        "CLI subcommands": 8,
        "CI run steps": 10,
        "step bodies": ["src/repro/runtime/engine.py"],
    }
    source_lines = sum(len(path.read_text().splitlines())
                       for path in (root / "src/repro").rglob("*.py"))
    assert source_lines <= 18_234   # lowered as the source shrinks


#: Public top-level names under ``src/repro`` that nothing in ``src/``,
#: ``bench/*.py`` or ``examples/`` reads, and why each one stays.
UNREAD_ON_PURPOSE = {
    # the autograd / model-zoo surface a user of ``repro.nn`` builds with
    "Sequential": "nn container", "tensor": "nn tensor factory",
    "is_grad_enabled": "no_grad()'s query", "log_softmax": "nn op",
    "relu": "nn op", "sigmoid": "nn op",
    "checkpointed_classifier_loss": "checkpointed loss for classifiers",
    "models_by_family": "model-zoo query",
    "make_schedule": "LR schedule registry entry point",
    # registries and exporters that are entry points themselves
    "get_design": "HLS design registry lookup",
    "registered_designs": "HLS design registry listing",
    "export_all": "experiments -> JSON entry point",
    "Store": "DES kernel's FIFO hand-off primitive",
    # what the tests compare against
    "expected_host_resident": "closed form test_host_memory asserts",
    "compression_error": "Top-K error metric the property tests use",
    "quantization_error": "int8 codec's error bound, tested",
    "pinned": "strips the wall-clock block in test_golden_results",
    "fmt_bytes": "report formatter, tested",
}


def test_no_public_name_without_a_reader():
    """AST only (nothing imported or executed): every public top-level
    function and class under ``src/repro`` is read somewhere in
    ``src/``, ``bench/*.py`` or ``examples/`` — its definition,
    ``__init__`` re-exports and ``__all__`` strings do not count — or is
    on the list above with its reason.  A name that loses its last
    reader is deleted with its tests, not left behind."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src/repro").rglob("*.py"),
             *(root / "bench").glob("*.py"),
             *(root / "examples").glob("*.py")]
    defined, read = set(), set()
    for path in files:
        tree = ast.parse(path.read_text())
        if root / "src" in path.parents:
            defined.update(
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and path.name != "__init__.py"):
                read.update(alias.name for alias in node.names)
    assert sorted(defined - read) == sorted(UNREAD_ON_PURPOSE)


# ----------------------------------------------------------------------
# iteration traffic / expected traffic
# ----------------------------------------------------------------------
def test_iteration_traffic_totals():
    traffic = IterationTraffic(host_reads=3, host_writes=4,
                               internal_reads=5, internal_writes=6)
    assert traffic.host_total == 7
    assert traffic.internal_total == 11


def test_expected_traffic_rejects_unknown_method():
    with pytest.raises(TrainingError):
        expected_traffic(100, "teleport")


def test_expected_traffic_smartcomp_default_shards():
    single = expected_traffic(1000, "smartcomp", compression_ratio=0.02)
    assert single["host_writes"] == 8 * 10  # keep 1% of 1000


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def test_render_table_aligns_columns():
    text = render_table(("name", "value"),
                        [("a", 1.5), ("long-name", 123456.0)],
                        title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert lines[1].startswith("name")
    assert set(lines[2]) <= {"-", " "}
    assert "long-name" in lines[4]


def test_render_table_float_formats():
    text = render_table(("v",), [(0.1234,), (5.6789,), (1234.5,), (0.0,)])
    assert "0.1234" in text
    assert "5.68" in text
    assert "1234" in text


def test_fmt_bytes_scales_units():
    assert fmt_bytes(512) == "512.00 B"
    assert fmt_bytes(2048) == "2.00 KB"
    assert fmt_bytes(3 * 1024 ** 3) == "3.00 GB"


