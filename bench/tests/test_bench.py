"""Self-test and schema guard for the benchmark harness.

    python -m pytest bench/tests -q

Outside tier-1's ``testpaths`` on purpose: it runs the real ``--smoke``
benchmark (every workload, tiny step counts) end to end and traced.
"""

import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("smart_suoc", "baseline_raid0", "compute_spill", "des_sweep")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def _smoke(tmp_path_factory, *flags):
    out = tmp_path_factory.mktemp("bench") / "report.json"
    begin = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--out", str(out), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.monotonic() - begin
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        report = json.load(handle)
    return report, json.loads(done.stdout.strip().splitlines()[-1]), elapsed


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _smoke(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory, "--traced")


def test_spec_stays_inside_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= spec["run_seconds"] <= 60
    assert os.path.getsize(run.SPEC_PATH) <= 64 * 1024


def test_smoke_reports_every_end_to_end_metric(spec, smoke):
    report, line, elapsed = smoke
    assert elapsed < 30, f"--smoke took {elapsed:.1f} s"
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    for name, entry in report["workloads"].items():
        assert entry["correct"], entry["problems"]
        for metric in spec["end_to_end"]:
            value = entry["metrics"][metric["name"]]["value"]
            assert value > 0, (name, metric["name"])
    checks = report["workloads"]["baseline_raid0"]["checks"]
    assert checks["crosscheck"]["identical"] is True
    assert checks["host_bytes_per_step"] == checks["expected_host_bytes"]
    environment = report["environment"]
    for key in ("nproc", "usable_cpus", "python", "numpy", "thread_pins",
                "workdir_filesystem", "flush_policy", "loadavg_before",
                "loadavg_after"):
        assert key in environment
    assert all("steal_share" in r
               for e in report["workloads"].values() for r in e["rounds"])


def test_traced_smoke_reports_every_per_layer_metric_once(spec, traced):
    report, _line, _elapsed = traced
    shared = list(report["isolated"]) + list(report["probes"]) \
        + ["trace.probes_failed"]
    assert report["probes_failed"] == 0, report["probes"]
    assert report["isolated_errors"] == []
    wanted = {m["name"] for m in spec["per_layer"]}
    seen = set(shared)
    assert len(seen) == len(shared)
    for name, entry in report["workloads"].items():
        assert entry["correct"], entry["problems"]
        # A metric that does not apply to a workload may be absent from
        # its row (the result line prints it as 0); none may be unknown
        # or reported both per workload and once per run.
        assert set(entry["layers"]) <= wanted - set(shared), name
        seen |= set(entry["layers"])
    assert seen == wanted
    # The bypass claims are counts, so they hold even for a 3-step round.
    layers = {n: e["layers"] for n, e in report["workloads"].items()}
    assert layers["baseline_raid0"]["csd.updater_calls"] == 0
    assert layers["baseline_raid0"]["compression.topk_calls"] == 0
    assert layers["baseline_raid0"]["storage.raid0_write_ms"] > 0
    assert layers["smart_suoc"]["storage.raid0_read_ms"] == 0
    assert layers["smart_suoc"]["compression.topk_calls"] == 2
    assert layers["compute_spill"]["nn.spill_bytes"] > 0
    assert layers["des_sweep"]["optim.step_calls"] == 0
    assert layers["des_sweep"]["sim.events"] > 0


@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_names_exactly_the_spec_metrics(spec, smoke, traced,
                                                    trace):
    report = copy.deepcopy((traced if trace else smoke)[0])
    report["workloads"] = {"smart_suoc": report["workloads"]["smart_suoc"]}
    line = run.result_line(report, spec, bool(trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    section = spec["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in section]
    for metric in section:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    json.dumps(line, allow_nan=False)


def test_a_raising_probe_is_null_and_counted(tmp_path):
    values, failed = run.collect_probes(
        ["no.such_probe"], seed=0, smoke=True, workdir=str(tmp_path),
        deadline=time.monotonic() + 60)
    assert values == {"no.such_probe": None} and failed == 1


def test_agree_rejects_a_metric_past_its_bound(spec, smoke, tmp_path):
    report = smoke[0]
    same, worse = tmp_path / "a.json", tmp_path / "b.json"
    same.write_text(json.dumps(report))
    assert run.agree(str(same), str(same), spec) == 0
    pushed = copy.deepcopy(report)
    metric = spec["end_to_end"][0]
    entry = pushed["workloads"]["des_sweep"]["metrics"][metric["name"]]
    entry["value"] *= 1.0 + 2 * metric["bound"]
    worse.write_text(json.dumps(pushed))
    assert run.agree(str(same), str(worse), spec) == 1
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--agree",
         str(same), str(worse)], capture_output=True, text=True)
    assert done.returncode == 1 and "DISAGREE" in done.stdout


def test_nothing_to_measure_is_an_error(tmp_path):
    """A directory with only BENCHMARK.json and bench/ has no program."""
    import shutil
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "des_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
