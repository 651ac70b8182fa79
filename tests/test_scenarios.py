"""Tests for the declarative scenario engine (repro.scenarios)."""

import json

import numpy as np
import pytest

from repro.errors import ScenarioError, TrainingError
from repro.faults import FaultPlan, FaultRule
from repro.runtime import CONFIG_SCHEMA_VERSION, TrainingConfig
from repro.scenarios import (Expectations, PhaseSpec, SCENARIO_SCHEMA,
                             SCENARIO_SLO_RULES, Scenario, ScenarioRunner,
                             WorkloadSpec, load_scenario)


def tiny_workload():
    return WorkloadSpec(dim=16, num_layers=1, vocab_size=32, seq_len=8,
                        batch=2, num_heads=2)


def tiny_config(**overrides):
    base = dict(optimizer="adam", optimizer_kwargs={"lr": 1e-2},
                subgroup_elements=4096, num_csds=2)
    base.update(overrides)
    return TrainingConfig(**base)


def dropout_scenario(seed=0):
    """setup -> dropout anomaly -> splice-out recovery, with reference."""
    plan = FaultPlan(rules=(
        FaultRule(kind="device_dropout", device=1, at_op=2),))
    return Scenario(
        name="mini_dropout", seed=seed, engine="smart",
        config=tiny_config(), workload=tiny_workload(),
        phases=(
            PhaseSpec(name="setup", kind="setup", steps=1,
                      expect=Expectations(no_new_alerts=True)),
            PhaseSpec(name="anomaly", kind="anomaly", steps=1,
                      fault_plan=plan,
                      expect=Expectations(
                          injected_include=("device_dropout",),
                          alerts_include=("device_dropout",),
                          min_demotions=1,
                          bit_identical_to_reference=True)),
            PhaseSpec(name="recovery", kind="recovery", steps=1,
                      fault_plan=None,
                      expect=Expectations(
                          no_new_alerts=True, loss_finite=True,
                          bit_identical_to_reference=True)),
        ))


# ----------------------------------------------------------------------
# spec round trip + validation
# ----------------------------------------------------------------------
def test_scenario_json_round_trip(tmp_path):
    scenario = dropout_scenario()
    path = str(tmp_path / "s.json")
    scenario.to_json_file(path)
    with open(path) as handle:
        document = json.load(handle)
    assert document["schema"] == SCENARIO_SCHEMA
    assert document["schema_version"] == 1
    loaded = load_scenario(path)
    assert loaded == scenario
    # Dict round-trip too, including the nested fault plan.
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    assert loaded.phases[1].fault_plan.rules[0].kind == "device_dropout"


def test_unknown_keys_fail_with_did_you_mean():
    with pytest.raises(ScenarioError, match="did you mean 'phases'"):
        Scenario.from_dict({"schema": SCENARIO_SCHEMA, "name": "x",
                            "phasez": []})
    with pytest.raises(ScenarioError, match="did you mean 'loss_finite'"):
        PhaseSpec.from_dict(
            {"name": "p", "expect": {"loss_finit": True}}, 0)
    with pytest.raises(ScenarioError, match="did you mean 'num_layers'"):
        WorkloadSpec.from_dict({"num_layer": 2})
    with pytest.raises(ScenarioError,
                       match="did you mean 'compression_ratio'"):
        Scenario(name="x", sweep={"compression_ration": (0.1,)},
                 phases=(PhaseSpec(name="p"),))


def test_newer_schema_version_warns_but_parses():
    document = dropout_scenario().to_dict()
    document["schema_version"] = 99
    with pytest.warns(UserWarning, match="newer than this build"):
        loaded = Scenario.from_dict(document)
    assert loaded.name == "mini_dropout"


def test_invalid_schema_rejected():
    document = dropout_scenario().to_dict()
    document["schema"] = "something/else"
    with pytest.raises(ScenarioError, match="not a scenario file"):
        Scenario.from_dict(document)
    document = dropout_scenario().to_dict()
    document["schema_version"] = "two"
    with pytest.raises(ScenarioError, match="positive integer"):
        Scenario.from_dict(document)


def test_scenario_validation():
    with pytest.raises(ScenarioError, match="at least one phase"):
        Scenario(name="empty")
    with pytest.raises(ScenarioError, match="duplicate phase"):
        Scenario(name="dup", phases=(PhaseSpec(name="a"),
                                     PhaseSpec(name="a")))
    with pytest.raises(ScenarioError, match="exactly one"):
        Scenario(name="x", phases=(PhaseSpec(name="a"),),
                 sweep={"num_csds": (1,), "raid_members": (1,)})
    with pytest.raises(ScenarioError, match="unknown kind"):
        PhaseSpec(name="p", kind="mayhem")


def test_malformed_json_file_is_a_scenario_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))


def test_scenario_slo_rules_exclude_wall_clock_signals():
    signals = {rule["signal"] for rule in SCENARIO_SLO_RULES}
    assert "loss_finite" in signals
    assert "dropouts_step" in signals
    assert "steps_per_s" not in signals
    assert "arena_hit_rate" not in signals


# ----------------------------------------------------------------------
# TrainingConfig schema_version
# ----------------------------------------------------------------------
def test_config_round_trip_carries_schema_version(tmp_path):
    config = tiny_config(fault_plan=FaultPlan.default_chaos(seed=3))
    data = config.to_dict()
    assert data["schema_version"] == CONFIG_SCHEMA_VERSION
    assert TrainingConfig.from_dict(data) == config
    path = str(tmp_path / "c.json")
    config.to_json_file(path)
    with open(path) as handle:
        assert json.load(handle)["schema_version"] == \
            CONFIG_SCHEMA_VERSION
    assert TrainingConfig.from_json_file(path) == config


def test_config_newer_schema_version_warns():
    data = tiny_config().to_dict()
    data["schema_version"] = CONFIG_SCHEMA_VERSION + 1
    with pytest.warns(FutureWarning, match="newer than this build"):
        TrainingConfig.from_dict(data)


def test_config_bad_schema_version_rejected():
    data = tiny_config().to_dict()
    data["schema_version"] = 0
    with pytest.raises(TrainingError, match="positive integer"):
        TrainingConfig.from_dict(data)
    data["schema_version"] = True
    with pytest.raises(TrainingError, match="positive integer"):
        TrainingConfig.from_dict(data)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_runner_dropout_splice_and_reference(tmp_path):
    report = ScenarioRunner(dropout_scenario(),
                            workdir=str(tmp_path)).run()
    assert report.passed
    (campaign,) = report.campaigns
    assert campaign.counters["demotions"] == 1
    assert "device_dropout" in campaign.counters["alerts"]
    # The recovery phase matched the no-fault reference bit-for-bit.
    checks = {check.check: check
              for check in campaign.phases[2].checks}
    assert checks["bit_identical_to_reference"].ok
    assert campaign.reference_checksums["recovery"] == \
        campaign.final_checksum
    # Event log landed in the workdir.
    assert report.log_path == str(tmp_path / "events.jsonl")
    with open(report.log_path) as handle:
        assert handle.read() == report.log_text


def test_replay_is_byte_identical_and_seed_sensitive():
    scenario = dropout_scenario()
    first = ScenarioRunner(scenario).run()
    second = ScenarioRunner(scenario).run()
    assert first.passed and second.passed
    assert first.log_text == second.log_text
    events = [json.loads(line)
              for line in first.log_text.splitlines()]
    assert events[0]["event"] == "scenario_begin"
    assert events[-1]["event"] == "scenario_end"
    # chaos_seed reroutes the whole campaign deterministically.
    reseeded = ScenarioRunner(scenario, chaos_seed=7).run()
    assert reseeded.seed == 7
    assert reseeded.log_text != first.log_text


def test_failed_expectation_fails_the_phase():
    scenario = Scenario(
        name="expect_fail", config=tiny_config(),
        workload=tiny_workload(),
        phases=(PhaseSpec(name="quiet", steps=1,
                          expect=Expectations(min_injected=5)),))
    report = ScenarioRunner(scenario).run()
    assert not report.passed
    (check,) = report.campaigns[0].phases[0].checks
    assert check.check == "min_injected"
    assert check.actual == 0 and not check.ok


def test_runner_overrides_backend_workers_and_plan():
    scenario = Scenario(
        name="overrides", config=tiny_config(),
        workload=tiny_workload(),
        phases=(PhaseSpec(name="p", steps=1,
                          expect=Expectations(min_injected=1,
                                              loss_finite=True)),))
    # Transient chaos via the fault_plan override; thread backend with
    # an explicit worker count via the workers override.
    report = ScenarioRunner(
        scenario, backend="thread", workers=2,
        fault_plan=FaultPlan.default_chaos(probability=0.2)).run()
    assert report.passed


def test_runner_rejects_unknown_engine_mode():
    scenario = Scenario(
        name="bad_engine", engine="warp", config=tiny_config(),
        workload=tiny_workload(), phases=(PhaseSpec(name="p"),))
    with pytest.raises(ScenarioError, match="unknown engine mode"):
        ScenarioRunner(scenario).run()


def test_sweep_runs_one_campaign_per_value():
    scenario = Scenario(
        name="swept", config=tiny_config(),
        workload=tiny_workload(),
        sweep={"compression_ratio": (0.02, 0.05)},
        phases=(PhaseSpec(name="p", steps=1,
                          expect=Expectations(loss_finite=True)),))
    report = ScenarioRunner(scenario).run()
    assert report.passed
    assert [c.label for c in report.campaigns] == \
        ["compression_ratio=0.02", "compression_ratio=0.05"]
    # Different ratios train differently.
    assert report.campaigns[0].final_checksum != \
        report.campaigns[1].final_checksum


def test_workload_batches_are_seed_and_step_keyed():
    workload = tiny_workload()
    a = workload.make_batches(seed=1, step=4, batch=2, micro_batches=2)
    b = workload.make_batches(seed=1, step=4, batch=2, micro_batches=2)
    c = workload.make_batches(seed=1, step=5, batch=2, micro_batches=2)
    assert len(a) == 2
    assert all(np.array_equal(x, y)
               for (x, _), (y, _) in zip(a, b))
    assert not np.array_equal(a[0][0], c[0][0])
