"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, main


def _subcommands():
    """The parser's subcommand name -> subparser map."""
    return next(action.choices for action in _build_parser()._actions
                if isinstance(action.choices, dict))


def test_list_models(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--list-models"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "gpt2-8.4b" in out
    assert "bloom-7.1b" in out


# ``top --once`` in sim mode is what the retired ``simulate`` printed:
# step time, speedup over the baseline, and the per-phase split.
def test_simulate_reports_speedup(capsys):
    assert main(["top", "--once", "--model", "gpt2-4.0b", "--csds", "6",
                 "--method", "su_o_c"]) == 0
    out = capsys.readouterr().out
    assert "speedup vs BASE 1.45 x" in out
    assert "\n  update " in out   # the update phase's ownership rows


def test_simulate_baseline_has_no_speedup_row(capsys):
    assert main(["top", "--once", "--method", "baseline",
                 "--csds", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" not in out


def test_simulate_extension_method(capsys):
    assert main(["top", "--once", "--method", "su_o_c_q", "--csds", "4",
                 "--model", "gpt2-1.16b"]) == 0
    assert "su_o_c_q" in capsys.readouterr().out


def test_simulate_other_optimizer_and_gpu(capsys):
    assert main(["top", "--once", "--optimizer", "sgd", "--gpu", "a100",
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
    ["list-models"],                # --list-models
    ["simulate", "--csds", "2"],    # top --once
    ["health", "--once"],           # trace
])
def test_removed_subcommands_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_has_exactly_the_five_subcommands():
    assert sorted(_subcommands()) == sorted([
        "top", "whatif", "trace", "experiment", "scenario"])


def test_docstring_lists_every_subcommand():
    import repro.cli

    for command in _subcommands():
        assert f"* ``{command}``" in repro.cli.__doc__, (
            f"cli docstring does not mention subcommand {command!r}")


def test_trace_writes_chrome_trace_json(tmp_path, capsys):
    out = str(tmp_path / "t.trace.json")
    assert main(["trace", "--model", "gpt2-1.16b", "--csds", "2",
                 "--skip-functional", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "perfetto" in printed
    assert "step-health" not in printed   # no proxy, no health report
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
    assert main(["top", "--once", "--model", "gpt2-1.16b", "--csds", "2",
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


#: A small DES scenario, written to the test's working directory.
SMALL_TRACE = ["--model", "gpt2-1.16b", "--csds", "2",
               "--out", "proxy.trace.json"]


# ``trace`` prints the step-health report the retired ``health`` did.
def test_health_once_reports_signals_and_recorder(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--steps", "2"] + SMALL_TRACE) == 0
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
    assert main(["trace", "--steps", "3", "--fault-plan", str(plan_path)]
                + SMALL_TRACE) == 0
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
    assert main(["trace", "--steps", "2", "--slo", str(slo_path)]
                + SMALL_TRACE) == 0
    out = capsys.readouterr().out
    assert "[info] always" in out


def test_trace_baseline_proxy_runs_the_baseline_engine(tmp_path, capsys,
                                                      monkeypatch):
    import json
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--method", "baseline"] + SMALL_TRACE) == 0
    with open("proxy.trace.json") as handle:
        events = json.load(handle)["traceEvents"]
    engines = [event["args"]["engine"] for event in events
               if event.get("name") == "iteration"]
    assert engines == ["baseline"]


def test_proxy_runs_the_method_it_names(tmp_path, monkeypatch):
    """Every ``--method`` has a proxy engine, and SU+O+C+Q's int8
    upstream reads fewer host bytes per step than SU+O+C's."""
    from repro.cli import _PROXY_METHODS, _run_functional_proxy
    from repro.perf.scenarios import EXTENSION_METHODS, METHODS

    assert sorted(_PROXY_METHODS) == sorted(METHODS + EXTENSION_METHODS)
    monkeypatch.chdir(tmp_path)

    def host_reads(method):
        args = _build_parser().parse_args(
            ["trace", "--method", method, "--steps", "2"])
        return [step.host_reads for step
                in _run_functional_proxy(args, None)["traffic"]]

    quantized, dense = host_reads("su_o_c_q"), host_reads("su_o_c")
    assert len(quantized) == len(dense) == 2
    assert all(q < d for q, d in zip(quantized, dense))


# ----------------------------------------------------------------------
# every documented command parses
# ----------------------------------------------------------------------
#: The documents whose ``python -m repro …`` commands must parse
#: (docs/PERFORMANCE.md is a log of past runs and is left out).
DOCUMENTED = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/API.md",
              "docs/OBSERVABILITY.md", ".claude/skills/verify/SKILL.md")


def _ci_run_blocks(text):
    """The ``run:`` blocks of a workflow file, one string each."""
    blocks, indent = [], None
    for line in text.splitlines():
        depth = len(line) - len(line.lstrip())
        if indent is not None and (depth > indent or not line.strip()):
            blocks[-1] += "\n" + line
            continue
        indent = None
        if line.lstrip().startswith("run:"):
            indent = depth
            blocks.append(line.split("run:", 1)[1])
    return blocks


def _documented_commands():
    """(source, command) for each ``python -m repro`` command in the
    documents' fenced blocks and backtick spans and in CI's ``run:``
    blocks, ``\\`` continuations joined; the command is what follows
    ``python -m repro``."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    fence = re.compile(r"^[ \t]*```[^\n]*\n(.*?)^[ \t]*```", re.S | re.M)
    snippets = []
    for name in DOCUMENTED:
        text = (root / name).read_text()
        snippets += [(name, block) for block in fence.findall(text)]
        snippets += [(name, " ".join(span.split())) for span
                     in re.findall(r"`([^`]+)`", fence.sub("", text))]
    ci = root / ".github/workflows/ci.yml"
    snippets += [(ci.name, block)
                 for block in _ci_run_blocks(ci.read_text())]
    for source, snippet in snippets:
        snippet = re.sub(r"\\\n\s*", " ", snippet)
        for line in snippet.splitlines():
            for command in re.findall(r"python -m repro\b([^`]*)", line):
                yield source, command


def test_every_documented_command_parses(capsys):
    """Each documented command, up to a shell pipe or redirect, parses
    (``...`` elisions, ``{…}`` lists and a bare ``python -m repro``
    naming the CLI are skipped)."""
    import itertools
    import shlex

    checked, failures = 0, []
    for source, command in _documented_commands():
        if "..." in command or command.strip()[:1] in ("", "{"):
            continue
        lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
        argv = list(itertools.takewhile(
            lambda token: token[0] not in "|&;<>()", lexer))
        try:
            _build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code != 0:
                failures.append(f"{source}: python -m repro {command}\n"
                                f"  {capsys.readouterr().err.strip()}")
        checked += 1
    assert checked >= 40, checked
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", ["README.md", "DESIGN.md"])
def test_documented_subcommand_list_is_the_parsers(name):
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / name).read_text()
    listed = re.findall(r"python -m repro \{([^}]*)\}", text)
    assert listed, f"{name} has no python -m repro {{...}} list"
    for names in listed:
        assert sorted(n.strip() for n in names.split(",")) == \
            sorted(_subcommands())


# ----------------------------------------------------------------------
# shared flag vocabulary + the scenario subcommand
# ----------------------------------------------------------------------
ENGINE_SUBCOMMANDS = ("trace", "scenario")
SHARED_FLAGS = ("--backend", "--workers", "--fault-plan",
                "--chaos-seed", "--slo", "--schedule",
                "--activation-offload")


def test_engine_subcommands_share_identical_flags():
    subparsers = _subcommands()
    reference = {}
    for command in ENGINE_SUBCOMMANDS:
        options = {}
        for action in subparsers[command]._actions:
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


def _jsonl(path):
    import json
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def test_whatif_prints_path_and_ranked_projections(capsys):
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su"]) == 0
    out = capsys.readouterr().out
    assert "what-if observatory" in out
    assert "critical path" in out
    assert ("what-if (the DES re-run per counterfactual, ranked by "
            "step-time reduction)") in out
    assert "add_csds(+2)" in out
    assert "interleave()" in out


def test_whatif_explicit_interventions_and_jsonl(tmp_path, capsys):
    jsonl = str(tmp_path / "critpath.jsonl")
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su_o_c", "--scale", "ssd0-write=1.5",
                 "--add-csds", "2", "--compression-ratio", "0.01",
                 "--jsonl", jsonl]) == 0
    out = capsys.readouterr().out
    assert "scale(ssd0-write, 1.5)" in out
    assert f"[critpath events: {jsonl}]" in out
    lines = _jsonl(jsonl)
    assert lines[0]["schema"] == "smart-infinity/critpath/v1"
    assert lines[0]["model"] == "gpt2-1.16b"
    kinds = {line["type"] for line in lines}
    assert {"meta", "path_step", "path_resource",
            "projection"} <= kinds
    assert "validation" not in kinds


def test_whatif_prints_exactly_what_observe_answers(tmp_path, capsys):
    """Every counterfactual number, printed or logged, is a direct
    ``observe`` of that counterfactual: the same floats, not an
    estimate of them."""
    from repro.perf.analysis import observe, resolve

    def step(csds=2, **changes):
        return observe(*resolve("gpt2-1.16b", csds), "su_o_c",
                       **changes).breakdown.total

    jsonl = str(tmp_path / "critpath.jsonl")
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "2",
                 "--method", "su_o_c", "--scale", "ssd0-write=1.5",
                 "--add-csds", "2", "--compression-ratio", "0.01",
                 "--interleave", "--jsonl", jsonl]) == 0
    out = capsys.readouterr().out
    base = step()
    expected = {
        "scale(ssd0-write, 1.5)": step(
            channel_scales={"ssd0-write": 1 / 1.5}),
        "add_csds(+2)": step(csds=4),
        "compression_ratio(0.01)": step(compression_ratio=0.01),
        "interleave()": step(schedule="interleaved"),
    }
    rows = {line["label"]: line for line in _jsonl(jsonl)
            if line["type"] == "projection"}
    assert rows.keys() == expected.keys()
    assert f"step time {base:.3f} s" in out
    printed = {line.strip().split("  ")[0]: line
               for line in out.splitlines() if " s -> " in line}
    for label, seconds in expected.items():
        assert rows[label] == {
            "type": "projection", "label": label,
            "baseline_step_seconds": base,
            "projected_step_seconds": seconds,
            "reduction_seconds": base - seconds,
            "speedup": base / seconds}
        assert printed[label].endswith(
            f"{base:.3f} s -> {seconds:.3f} s  "
            f"({base - seconds:+.3f} s saved, {base / seconds:.2f}x)")


@pytest.mark.parametrize("method,model,csds", [
    ("baseline", "gpt2-1.16b", 2), ("su", "gpt2-4.0b", 10)])
def test_whatif_finds_no_compression_gain_where_nothing_compresses(
        tmp_path, capsys, method, model, csds):
    scenario = ["whatif", "--model", model, "--csds", str(csds),
                "--method", method]
    assert main(scenario) == 0
    assert "compression_ratio(" not in capsys.readouterr().out
    jsonl = str(tmp_path / "critpath.jsonl")
    assert main(scenario + ["--compression-ratio", "0.01",
                            "--jsonl", jsonl]) == 0
    (row,) = [line for line in _jsonl(jsonl)
              if line["type"] == "projection"]
    assert (row["reduction_seconds"], row["speedup"]) == (0.0, 1.0)


def test_whatif_rejects_bad_scale_syntax(capsys):
    assert main(["whatif", "--scale", "nonsense"]) == 2
    assert "invalid --scale" in capsys.readouterr().out


@pytest.mark.parametrize("extra", ["0", "-3"])
def test_whatif_rejects_a_fleet_that_does_not_grow(capsys, extra):
    assert main(["whatif", "--add-csds", extra]) == 2
    assert "invalid --add-csds" in capsys.readouterr().out


@pytest.mark.parametrize("ratio", ["0", "-0.5", "1.5"])
def test_whatif_rejects_a_ratio_outside_the_unit_interval(capsys, ratio):
    assert main(["whatif", "--compression-ratio", ratio]) == 2
    assert "invalid --compression-ratio" in capsys.readouterr().out


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
