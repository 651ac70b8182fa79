"""Step-health monitor and SLO rules engine unit tests.

Pins the statistical semantics (EWMA mean/variance, prior-window
z-scores), the declarative rule schema (validation, suggestions, JSON
loading), the fire-on-entering-breach/re-arm lifecycle, and the
attribution-driven health pane that ``repro top`` renders.
"""

import json
import math

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Timeline
from repro.telemetry.health import (DEFAULT_SLO_RULES, Alert, Ewma, Rule,
                                    RulesEngine, SignalWindow,
                                    StepHealthMonitor,
                                    evaluate_attribution, load_slo_rules,
                                    parse_rules)
from repro.telemetry.spans import SpanTracer


# ----------------------------------------------------------------------
# EWMA / signal windows
# ----------------------------------------------------------------------
def test_ewma_converges_to_constant_signal():
    ewma = Ewma(alpha=0.25)
    for _ in range(50):
        ewma.update(3.0)
    assert ewma.mean == pytest.approx(3.0)
    assert ewma.std == pytest.approx(0.0)
    assert ewma.samples == 50


def test_ewma_first_sample_seeds_mean_without_variance():
    ewma = Ewma()
    ewma.update(10.0)
    assert ewma.mean == 10.0
    assert ewma.std == 0.0


def test_ewma_rejects_bad_alpha():
    with pytest.raises(TelemetryError, match="alpha"):
        Ewma(alpha=0.0)
    with pytest.raises(TelemetryError, match="alpha"):
        Ewma(alpha=1.5)


def test_signal_window_zscore_uses_prior_statistics():
    window = SignalWindow("loss")
    for value in (1.0, 1.1, 0.9, 1.0, 1.1, 0.9, 1.0):
        window.update(value)
    prior_mean, prior_std = window.ewma, window.std
    window.update(100.0)
    # The spike is judged against the EWMA *before* it arrived — the
    # sample must not dilute the statistics that are judging it.
    expected = (100.0 - prior_mean) / prior_std
    assert window.zscore() == pytest.approx(expected)
    assert window.zscore() > 10.0


def test_signal_window_zscore_zero_before_variance_exists():
    window = SignalWindow("flat")
    window.update(5.0)
    assert window.zscore() == 0.0
    window.update(5.0)
    assert window.zscore() == 0.0  # zero variance: nothing is surprising


def test_monitor_observe_and_snapshot():
    monitor = StepHealthMonitor()
    monitor.observe(loss=2.0, steps_per_s=10.0)
    monitor.observe(loss=1.0)
    snap = monitor.snapshot()
    assert snap["loss"]["samples"] == 2
    assert snap["loss"]["last"] == 1.0
    assert snap["steps_per_s"]["samples"] == 1
    assert monitor.steps_observed == 2
    rendered = monitor.render()
    assert "loss" in rendered and "steps_per_s" in rendered


# ----------------------------------------------------------------------
# rule schema
# ----------------------------------------------------------------------
def test_rule_validation_rejects_bad_combinations():
    with pytest.raises(TelemetryError, match="unknown kind"):
        Rule(name="r", kind="median", signal="s", value=1.0)
    with pytest.raises(TelemetryError, match="unknown direction"):
        Rule(name="r", kind="threshold", signal="s", value=1.0,
             direction="sideways")
    with pytest.raises(TelemetryError, match="'above' or 'below'"):
        Rule(name="r", kind="threshold", signal="s", value=1.0,
             direction="rise")
    with pytest.raises(TelemetryError, match="'rise' or 'drop'"):
        Rule(name="r", kind="ewma_zscore", signal="s", value=1.0,
             direction="above")
    with pytest.raises(TelemetryError, match="severity"):
        Rule(name="r", kind="threshold", signal="s", value=1.0,
             severity="fatal")
    with pytest.raises(TelemetryError, match="min_samples"):
        Rule(name="r", kind="threshold", signal="s", value=1.0,
             min_samples=0)


def test_rule_from_dict_suggests_close_key():
    with pytest.raises(TelemetryError, match="did you mean 'signal'"):
        Rule.from_dict({"name": "r", "kind": "threshold",
                        "signla": "loss", "value": 1.0})
    with pytest.raises(TelemetryError, match="missing required key"):
        Rule.from_dict({"name": "r", "kind": "threshold", "value": 1.0})


def test_rule_round_trips_through_dict():
    rule = Rule(name="r", kind="rate_of_change", signal="steps_per_s",
                value=0.5, direction="drop", min_samples=3,
                severity="critical", message="collapse")
    assert Rule.from_dict(rule.to_dict()) == rule


def test_default_rules_all_parse():
    rules = parse_rules(DEFAULT_SLO_RULES)
    assert {r.name for r in rules} == {
        "loss-not-finite", "loss-divergence", "throughput-collapse",
        "device-dropout", "retry-storm", "arena-thrash"}


def test_load_slo_rules_accepts_wrapper_and_bare_list(tmp_path):
    raw = [{"name": "r", "kind": "threshold", "signal": "loss",
            "value": 9.0}]
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"rules": raw}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(raw))
    assert load_slo_rules(str(wrapped)) == load_slo_rules(str(bare))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ruless": raw}))
    with pytest.raises(TelemetryError, match="'rules' list"):
        load_slo_rules(str(bad))
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(TelemetryError, match="object or list"):
        load_slo_rules(str(scalar))


def test_example_slo_file_parses():
    rules = load_slo_rules("examples/slo.json")
    assert len(rules) >= len(DEFAULT_SLO_RULES)
    assert any(r.signal.startswith("util:") for r in rules)


# ----------------------------------------------------------------------
# rule predicates
# ----------------------------------------------------------------------
def test_threshold_rule_fires_in_declared_direction():
    rule_hi = Rule(name="hi", kind="threshold", signal="s", value=5.0,
                   direction="above")
    rule_lo = Rule(name="lo", kind="threshold", signal="s", value=5.0,
                   direction="below")
    window = SignalWindow("s")
    window.update(7.0)
    assert rule_hi.check(window)[0] and not rule_lo.check(window)[0]
    window.update(3.0)
    assert rule_lo.check(window)[0] and not rule_hi.check(window)[0]


def test_rate_of_change_rule_is_relative_to_prior_ewma():
    rule = Rule(name="collapse", kind="rate_of_change",
                signal="steps_per_s", value=0.6, direction="drop")
    window = SignalWindow("steps_per_s")
    for _ in range(5):
        window.update(100.0)
    window.update(90.0)
    assert not rule.check(window)[0]       # -10% is fine
    window.update(30.0)
    breached, detail = rule.check(window)  # -70% vs ~99 EWMA
    assert breached
    assert "steps_per_s" in detail


def test_zscore_rule_needs_variance_history():
    rule = Rule(name="spike", kind="ewma_zscore", signal="loss",
                value=6.0, direction="rise")
    window = SignalWindow("loss")
    window.update(1.0)
    assert not rule.check(window)[0]       # no prior stats yet
    for value in (1.1, 0.9, 1.0, 1.1, 0.9):
        window.update(value)
    window.update(50.0)
    assert rule.check(window)[0]


# ----------------------------------------------------------------------
# rules engine lifecycle
# ----------------------------------------------------------------------
def test_engine_fires_on_entering_breach_and_rearms_on_recovery():
    engine = RulesEngine([Rule(name="hot", kind="threshold", signal="t",
                               value=10.0, direction="above")])
    monitor = StepHealthMonitor()

    monitor.observe(t=5.0)
    assert engine.evaluate(monitor, step=1) == []
    monitor.observe(t=15.0)
    (alert,) = engine.evaluate(monitor, step=2)
    assert alert.rule == "hot" and alert.step == 2
    monitor.observe(t=16.0)
    assert engine.evaluate(monitor, step=3) == []  # still breached: quiet
    monitor.observe(t=5.0)
    assert engine.evaluate(monitor, step=4) == []  # recovered: re-armed
    monitor.observe(t=20.0)
    assert len(engine.evaluate(monitor, step=5)) == 1


def test_engine_respects_min_samples_and_missing_signals():
    engine = RulesEngine([Rule(name="hot", kind="threshold", signal="t",
                               value=0.0, direction="above",
                               min_samples=3)])
    monitor = StepHealthMonitor()
    monitor.observe(t=1.0)
    monitor.observe(other=1.0)  # 't' does not move
    assert engine.evaluate(monitor) == []
    monitor.observe(t=1.0)
    assert engine.evaluate(monitor) == []  # 2 samples < min_samples
    monitor.observe(t=1.0)
    assert len(engine.evaluate(monitor)) == 1


def test_engine_rejects_duplicate_rule_names():
    rule = Rule(name="dup", kind="threshold", signal="s", value=1.0)
    with pytest.raises(TelemetryError, match="duplicate"):
        RulesEngine([rule, rule])


def test_alert_render_and_dict():
    alert = Alert(rule="hot", signal="t", value=15.0,
                  severity="critical", message="too hot", step=7)
    assert alert.render() == "[critical] hot @step 7: too hot"
    assert alert.to_dict()["kind"] == "slo"


# ----------------------------------------------------------------------
# attribution-driven health (the `top` pane)
# ----------------------------------------------------------------------
def _toy_attribution(busy=0.95):
    tracer = SpanTracer()
    with tracer.span("forward_backward"):
        with tracer.span("io", resource="host-link-up", nbytes=1000):
            pass
    spans = tracer.spans
    # Stretch the resource span to the requested occupancy of the phase.
    phase = next(s for s in spans if s.name == "forward_backward")
    inner = next(s for s in spans if s.name == "io")
    inner.start, inner.end = phase.start, \
        phase.start + busy * (phase.end - phase.start)
    return Timeline.from_spans(
        spans, phase_names=("forward_backward",)).attribution()


def test_evaluate_attribution_flags_saturated_resources():
    health = evaluate_attribution(_toy_attribution(busy=0.95))
    assert math.isclose(
        health.monitor.signals["util:host-link-up"].last, 0.95,
        rel_tol=0.1)
    assert any(a.rule == "saturated:host-link-up"
               for a in health.alerts)

    calm = evaluate_attribution(_toy_attribution(busy=0.2))
    assert calm.alerts == []


def test_evaluate_attribution_caller_rules_shadow_builtins():
    rules = [Rule(name="saturated:host-link-up", kind="threshold",
                  signal="util:host-link-up", direction="above",
                  value=0.5, severity="critical",
                  message="custom saturation limit")]
    health = evaluate_attribution(_toy_attribution(busy=0.7),
                                  rules=rules)
    (alert,) = [a for a in health.alerts
                if a.rule == "saturated:host-link-up"]
    assert alert.severity == "critical"
    assert alert.message == "custom saturation limit"
