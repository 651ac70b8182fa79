"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "gpt2-8.4b" in out
    assert "bloom-7.1b" in out


def test_simulate_reports_speedup(capsys):
    assert main(["simulate", "--model", "gpt2-4.0b", "--csds", "6",
                 "--method", "su_o_c"]) == 0
    out = capsys.readouterr().out
    assert "speedup vs BASE" in out
    assert "update + opt" in out


def test_simulate_baseline_has_no_speedup_row(capsys):
    assert main(["simulate", "--method", "baseline", "--csds", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" not in out


def test_simulate_extension_method(capsys):
    assert main(["simulate", "--method", "su_o_c_q", "--csds", "4",
                 "--model", "gpt2-1.16b"]) == 0
    assert "su_o_c_q" in capsys.readouterr().out


def test_simulate_other_optimizer_and_gpu(capsys):
    assert main(["simulate", "--optimizer", "sgd", "--gpu", "a100",
                 "--csds", "4", "--model", "gpt2-1.16b"]) == 0
    assert "a100" in capsys.readouterr().out


def test_experiment_runs_table3(capsys):
    assert main(["experiment", "table3"]) == 0
    assert "Table III" in capsys.readouterr().out


def test_experiment_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [
    ["sweep", "devices"],      # experiment fig9 | fig10 | fig11 | fig16
    ["analyze", "--csds", "2"],     # experiment ext_bottlenecks, top
])
def test_removed_subcommands_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_has_exactly_the_eight_subcommands():
    from repro.cli import _build_parser

    subparsers = next(
        action for action in _build_parser()._actions
        if getattr(action, "choices", None)
        and "simulate" in action.choices)
    assert sorted(subparsers.choices) == sorted([
        "list-models", "simulate", "top", "whatif", "health", "trace",
        "experiment", "scenario"])


def test_docstring_lists_every_subcommand():
    import repro.cli
    from repro.cli import _build_parser

    subparsers = next(
        action for action in _build_parser()._actions
        if getattr(action, "choices", None)
        and "simulate" in action.choices)
    for command in subparsers.choices:
        assert command in repro.cli.__doc__, (
            f"cli docstring does not mention subcommand {command!r}")


def test_trace_writes_chrome_trace_json(tmp_path, capsys):
    out = str(tmp_path / "t.trace.json")
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--skip-functional", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "perfetto" in printed
    import json
    with open(out) as handle:
        document = json.load(handle)
    assert document["otherData"]["model"] == "gpt2-1.16b"
    assert any(event["ph"] == "X"
               for event in document["traceEvents"])


def test_trace_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su", "--skip-functional"]) == 0
    assert (tmp_path / "gpt2-1.16b-su.trace.json").exists()


def test_trace_workers_flag_runs_functional_proxy(tmp_path, capsys):
    out = str(tmp_path / "w.trace.json")
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--workers", "2", "--out", out]) == 0
    import json
    with open(out) as handle:
        document = json.load(handle)
    update_threads = {
        event["tid"] for event in document["traceEvents"]
        if event.get("name") == "device_update"}
    assert len(update_threads) == 2


def test_simulate_metrics_prints_exposition(capsys):
    assert main(["simulate", "--model", "gpt2-1.16b", "--csds", "2",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE des_channel_bytes_total counter" in out
    assert "des_channel_utilization" in out


def test_top_once_sim_mode_prints_verdict(capsys):
    assert main(["top", "--once", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck observatory" in out
    assert "bottleneck:" in out
    assert "occupied" in out
    assert "phase x resource ownership" in out
    # The sim trace's phases all appear in the ownership table.
    for phase in ("forward", "backward_grad", "update"):
        assert phase in out


def test_top_once_trace_mode_attributes_finished_trace(tmp_path, capsys):
    trace_path = str(tmp_path / "t.trace.json")
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--skip-functional", "--out", trace_path]) == 0
    capsys.readouterr()
    assert main(["top", "--once", "--trace", trace_path]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    assert "bottleneck:" in out
    assert "host-link-down" in out


def test_top_once_jsonl_and_metrics(tmp_path, capsys):
    import json
    events_path = str(tmp_path / "events.jsonl")
    assert main(["top", "--once", "--model", "gpt2-1.16b", "--csds", "2",
                 "--jsonl", events_path, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert f"[attribution events: {events_path}]" in out
    assert "# TYPE attrib_step_seconds gauge" in out
    assert "# HELP attrib_resource_utilization" in out
    assert 'source="sim"' in out
    with open(events_path) as handle:
        first = json.loads(handle.readline())
    assert first["schema"] == "smart-infinity/attrib/v1"


def test_top_degrades_to_no_data_on_missing_trace(tmp_path, capsys):
    missing = str(tmp_path / "not-written-yet.trace.json")
    assert main(["top", "--once", "--trace", missing]) == 0
    out = capsys.readouterr().out
    assert "no data yet" in out
    assert "python -m repro trace" in out
    assert "Traceback" not in out


def test_top_degrades_to_no_data_on_empty_trace(tmp_path, capsys):
    import json
    empty = tmp_path / "empty.trace.json"
    empty.write_text(json.dumps({"traceEvents": []}))
    assert main(["top", "--once", "--trace", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "no data yet" in out
    assert "nothing to attribute" in out


def test_top_renders_health_pane_and_accepts_slo_file(capsys):
    assert main(["top", "--once", "--model", "gpt2-1.16b", "--csds", "2",
                 "--slo", "examples/slo.json"]) == 0
    out = capsys.readouterr().out
    assert "health/alerts" in out


def test_health_once_reports_signals_and_recorder(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["health", "--once", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "step-health signals" in out
    assert "steps_per_s" in out
    assert "loss_finite" in out
    assert "flight recorder:" in out
    assert "alerts: none fired" in out


def test_health_chaos_dropout_fires_alert_and_dump(tmp_path, capsys,
                                                   monkeypatch):
    import json
    monkeypatch.chdir(tmp_path)
    plan = {"seed": 7, "rules": [
        {"kind": "device_dropout", "device": 1, "at_op": 40}]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["health", "--once", "--steps", "3",
                 "--fault-plan", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert "[critical] device_dropout" in out
    assert "[flight dump:" in out
    dumps = sorted((tmp_path / "flightrec").iterdir())
    assert dumps, "automatic flight dump missing"
    records = [json.loads(line) for line in open(dumps[0])]
    assert records[0]["schema"] == "smart-infinity/flightrec/v1"
    # The acceptance check: the tail of the dump holds the triggering
    # fault event and the alert that fired for it.
    events = records[1:]
    # Workers still running when the snapshot is taken may append a few
    # trailing events, so "tail" is a window, not the literal last slot.
    alert_at = max(i for i, r in enumerate(events)
                   if r["kind"] == "alert")
    assert len(events) - alert_at <= 25, \
        "alert not in the dump's tail"
    fault_at = max(i for i, r in enumerate(events)
                   if r["kind"] == "fault" and
                   r["name"] == "faults_dropouts_total")
    assert len(events) - fault_at <= 60, \
        "dropout fault event not in the dump's tail"


def test_health_accepts_custom_slo_rules(tmp_path, capsys, monkeypatch):
    import json
    monkeypatch.chdir(tmp_path)
    rules = {"rules": [
        {"name": "always", "kind": "threshold", "signal": "loss_finite",
         "direction": "above", "value": 0.5, "severity": "info",
         "message": "fires every healthy run"}]}
    slo_path = tmp_path / "slo.json"
    slo_path.write_text(json.dumps(rules))
    assert main(["health", "--once", "--steps", "2",
                 "--slo", str(slo_path)]) == 0
    out = capsys.readouterr().out
    assert "[info] always" in out


# ----------------------------------------------------------------------
# shared flag vocabulary + the scenario subcommand
# ----------------------------------------------------------------------
ENGINE_SUBCOMMANDS = ("health", "trace", "scenario")
SHARED_FLAGS = ("--backend", "--workers", "--fault-plan",
                "--chaos-seed", "--slo", "--schedule",
                "--activation-offload")


def test_engine_subcommands_share_identical_flags():
    from repro.cli import _build_parser

    subparsers = next(
        action for action in _build_parser()._actions
        if getattr(action, "choices", None)
        and "simulate" in action.choices)
    reference = {}
    for command in ENGINE_SUBCOMMANDS:
        options = {}
        for action in subparsers.choices[command]._actions:
            for flag in action.option_strings:
                options[flag] = (action.help, action.default)
        for flag in SHARED_FLAGS:
            assert flag in options, f"{command} is missing {flag}"
            reference.setdefault(flag, options[flag])
            assert options[flag] == reference[flag], (
                f"{command} {flag} diverges from the shared definition")
        # --backend default None so handlers can tell set from unset.
        assert options["--backend"][1] is None


@pytest.mark.parametrize("command,flag", [
    (command, flag)
    for command, kept in (("top", ("--schedule", "--slo")),
                          ("whatif", ("--schedule",)))
    for flag in SHARED_FLAGS if flag not in kept])
def test_simulation_only_subcommands_reject_engine_flags(command, flag,
                                                         capsys):
    """top and whatif replay a simulation; they used to accept the
    engine flags only to print that they ignore them."""
    value = {"--backend": "process", "--activation-offload": "spill",
             "--slo": "examples/slo.json",
             "--fault-plan": "examples/chaos.json"}.get(flag, "3")
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--csds", "2", flag, value])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the what-if observatory subcommand
# ----------------------------------------------------------------------

def test_version_flag_prints_package_version(capsys):
    from repro.version import __version__
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


def test_whatif_prints_path_and_ranked_projections(capsys):
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su"]) == 0
    out = capsys.readouterr().out
    assert "what-if observatory" in out
    assert "critical path" in out
    assert "what-if projections (ranked by step-time reduction)" in out
    assert "add_csds(" in out


def test_whatif_explicit_interventions_and_jsonl(tmp_path, capsys):
    import json
    jsonl = str(tmp_path / "critpath.jsonl")
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su_o_c", "--scale", "ssd0-write=1.5",
                 "--add-csds", "2", "--compression-ratio", "0.01",
                 "--jsonl", jsonl]) == 0
    out = capsys.readouterr().out
    assert "scale(ssd0-write, 1.5)" in out
    assert f"[critpath events: {jsonl}]" in out
    with open(jsonl) as handle:
        lines = [json.loads(line) for line in handle]
    assert lines[0]["schema"] == "smart-infinity/critpath/v1"
    assert lines[0]["model"] == "gpt2-1.16b"
    kinds = {line["type"] for line in lines}
    assert {"meta", "path_step", "path_resource",
            "projection"} <= kinds


def test_whatif_validate_gates_projection_error(capsys):
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su_o_c", "--scale", "ssd0-write=1.5",
                 "--validate", "--max-error", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "validate scale(ssd0-write, 1.5)" in out
    assert "PASS" in out
    assert "within 5% of the DES re-run" in out


def test_whatif_rejects_bad_scale_syntax(capsys):
    assert main(["whatif", "--scale", "nonsense"]) == 2
    assert "invalid --scale" in capsys.readouterr().out


def test_whatif_rejects_unknown_channel(capsys):
    assert main(["whatif", "--csds", "2",
                 "--scale", "warp-core=0.5"]) == 2
    out = capsys.readouterr().out
    assert "unknown channel" in out
    assert "host-link-down" in out


def _tiny_scenario_doc(name="tiny", **extra):
    doc = {
        "schema": "smart-infinity/scenario/v1",
        "name": name,
        "config": {"optimizer": "adam",
                   "optimizer_kwargs": {"lr": 0.01},
                   "subgroup_elements": 4096, "num_csds": 2},
        "workload": {"dim": 16, "num_layers": 1, "vocab_size": 32,
                     "seq_len": 8, "batch": 2, "num_heads": 2},
        "phases": [{"name": "p", "steps": 1,
                    "expect": {"loss_finite": True}}],
    }
    doc.update(extra)
    return doc


def _write_scenario(tmp_path, doc):
    import json
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_scenario_list_tabulates_files(tmp_path, capsys):
    path = _write_scenario(tmp_path, _tiny_scenario_doc(
        description="one tiny phase"))
    assert main(["scenario", "list", path]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out
    assert "one tiny phase" in out


def test_scenario_run_reports_phases_and_writes_log(tmp_path, capsys):
    path = _write_scenario(tmp_path, _tiny_scenario_doc())
    log = str(tmp_path / "events.jsonl")
    assert main(["scenario", "run", path, "--log", log]) == 0
    out = capsys.readouterr().out
    assert "scenario tiny" in out and "PASS" in out
    assert "[ok] p" in out
    import json
    with open(log) as handle:
        events = [json.loads(line) for line in handle]
    assert events[0]["event"] == "scenario_begin"
    assert events[0]["schema"] == "smart-infinity/scenario/v1"


def test_scenario_run_failure_exits_nonzero(tmp_path, capsys):
    doc = _tiny_scenario_doc(name="failing")
    doc["phases"][0]["expect"] = {"min_injected": 99}
    path = _write_scenario(tmp_path, doc)
    assert main(["scenario", "run", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "failed min_injected" in out


def test_scenario_replay_detects_identity_and_divergence(tmp_path,
                                                         capsys):
    path = _write_scenario(tmp_path, _tiny_scenario_doc())
    log = str(tmp_path / "events.jsonl")
    assert main(["scenario", "run", path, "--log", log]) == 0
    capsys.readouterr()
    assert main(["scenario", "replay", path, "--log", log]) == 0
    assert "byte-identical" in capsys.readouterr().out
    # A different seed must diverge.
    assert main(["scenario", "replay", path, "--log", log,
                 "--chaos-seed", "5"]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_scenario_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scenario", "run", str(bad)]) == 2
    assert "cannot load scenario" in capsys.readouterr().out
    assert main(["scenario", "replay", str(bad)]) == 2
    capsys.readouterr()
    assert main(["scenario", "run", str(tmp_path / "missing-dir")]) == 2
