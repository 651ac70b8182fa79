"""Flight-recorder invariants: bounded records, fixed order, dump-once.

The recorder is the observability layer's black box, so its own claims
need pinning:

* memory is bounded by ``capacity`` step records no matter how long the
  run (sustained-load test);
* within a step the dump renders spans, the step event, the fault
  deltas in ledger order, then the alerts — the same on the thread and
  process backends, written on the main thread;
* an incident triggers exactly one automatic dump, even though a
  dropped-out device degrades every subsequent step, and a dump that
  cannot be written never costs a step;
* recording changes nothing about training: a chaos run with the
  recorder enabled is bit-identical to the same run with it disabled.
"""

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.faults import FaultPlan, FaultRule
from repro.faults.plan import METRIC_HELP, series_key
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import SmartInfinityEngine, TrainingConfig
from repro.telemetry import SpanTracer
from repro.telemetry.flight import (DEFAULT_CAPACITY, FLIGHT_SCHEMA,
                                    FlightRecorder, IncidentDumper,
                                    StepRecord)
from repro.scenarios.runner import SCENARIO_SLO_RULES

VOCAB = 32
SEQ = 16


def loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


def make_model(seed=7):
    return SequenceClassifier(
        bert_config(vocab_size=VOCAB, dim=32, num_layers=2, num_heads=2,
                    max_seq_len=SEQ), num_classes=3, seed=seed)


def make_batch(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, VOCAB, size=(4, SEQ)),
            rng.integers(0, 3, size=4))


def config(**kwargs):
    base = dict(optimizer="adam", optimizer_kwargs={"lr": 1e-2},
                subgroup_elements=4096)
    base.update(kwargs)
    return TrainingConfig(**base)


def quiet(engine):
    if getattr(engine, "faults", None) is not None:
        engine.faults._sleep = lambda seconds: None
    return engine


def read_dump(path):
    return [json.loads(line) for line in open(path)]


DROPOUT = FaultPlan(
    rules=(FaultRule(kind="device_dropout", device=1, at_op=40),))


# ----------------------------------------------------------------------
# the deque: bounded memory, fixed render order
# ----------------------------------------------------------------------
def test_memory_bounded_under_sustained_single_thread_load():
    recorder = FlightRecorder(capacity=64)
    for i in range(10_000):
        recorder.append(StepRecord(
            step=i, loss=0.5,
            faults=[(series_key("faults_retries_total", device=0), 1)]))
    stats = recorder.stats()
    assert stats["steps_retained"] == 64
    assert stats["events_recorded"] == 20_000
    assert stats["events_retained"] == 128
    assert stats["events_dropped"] == 20_000 - 128
    events = recorder.events()
    assert len(events) == 128
    # The deque keeps the NEWEST steps — the ones a post-mortem wants —
    # and ``seq`` keeps counting from the first event ever recorded.
    assert [e["attrs"]["step"] for e in events if e["kind"] == "step"] \
        == list(range(9936, 10_000))
    assert [e["seq"] for e in events] == list(range(19_872, 20_000))


def test_capacity_validation_and_default():
    assert FlightRecorder().records.maxlen == DEFAULT_CAPACITY
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)


def test_step_events_render_spans_step_faults_then_alerts():
    tracer = SpanTracer(clock=iter([0.0, 0.0, 1.0, 1.0, 2.0]).__next__)
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    recorder = FlightRecorder()
    record = StepRecord(
        step=3, loss=0.25, spans=tracer.spans,
        faults=[(series_key("faults_injected_total", device=1,
                            kind="io_error", op="read"), 2),
                (series_key("faults_dropouts_total", device=1), 1)])
    recorder.append(record)
    record.alerts.append(("device_dropout", {"severity": "critical"}))
    events = recorder.events()
    assert [(e["kind"], e["name"]) for e in events] == [
        ("span", "first"), ("span", "second"), ("step", "train_step"),
        ("fault", "faults_injected_total"),
        ("fault", "faults_dropouts_total"), ("alert", "device_dropout")]
    assert [e["seq"] for e in events] == list(range(6))
    assert events[2]["attrs"] == {"step": 3, "loss": 0.25,
                                  "overflow": False}
    assert events[3]["attrs"] == {"device": 1, "kind": "io_error",
                                  "op": "read", "amount": 2}
    assert events[0]["thread"] == threading.current_thread().name
    assert "thread" not in events[2]


def test_span_event_refers_to_the_span_it_renders(tmp_path):
    """A step's record holds the session's finished ``Span`` objects —
    one record, no copy; their attrs (which may hold keys like "kind")
    and duration are rendered only when somebody reads the events."""
    tracer = SpanTracer(clock=iter([0.0, 1.0, 1.5]).__next__)
    with tracer.span("s", kind="payload", device=1):
        pass
    (span,) = tracer.spans
    record = StepRecord(step=1, loss=1.0, spans=tracer.spans)
    assert record.spans[0] is span
    (event, _step) = list(record.events())
    assert event[1:4] == ("span", "s", {"kind": "payload", "device": 1,
                                        "duration": 0.5})

    tokens, labels = make_batch()
    with telemetry.session() as session:
        with SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "work"),
                                 config=config(num_csds=2)) as engine:
            engine.train_step(tokens, labels)
            engine.train_step(tokens, labels)
            first, second = engine.flight.records
    assert [id(s) for s in (*first.spans, *second.spans)] == [
        id(s) for s in session.tracer.spans]
    assert second.spans[-1].name == "iteration"


def test_dump_jsonl_round_trips_schema_and_meta(tmp_path):
    recorder = FlightRecorder(capacity=8)
    recorder.append(StepRecord(
        step=12, loss=0.5,
        faults=[(series_key("faults_dropouts_total", device=1), 1)]))
    path = recorder.dump_jsonl(str(tmp_path / "dump.jsonl"),
                               reason="unit-test", step=12)
    records = read_dump(path)
    head, events = records[0], records[1:]
    assert head["type"] == "meta"
    assert head["schema"] == FLIGHT_SCHEMA
    assert head["reason"] == "unit-test"
    assert head["step"] == 12
    assert head["events_recorded"] == 2
    assert [e["name"] for e in events] == ["train_step",
                                           "faults_dropouts_total"]


def test_engines_keep_their_own_records(tmp_path):
    """There is no process-wide recorder: two engines alive at once
    each record only their own steps, in any close order."""
    tokens, labels = make_batch()
    first = SmartInfinityEngine(make_model(), loss_fn,
                                str(tmp_path / "a"), config=config())
    second = SmartInfinityEngine(make_model(), loss_fn,
                                 str(tmp_path / "b"), config=config())
    try:
        first.train_step(tokens, labels)
        second.train_step(tokens, labels)
        first.close()
        second.train_step(tokens, labels)
    finally:
        first.close()
        second.close()
    assert [r.step for r in first.flight.records] == [1]
    assert [r.step for r in second.flight.records] == [1, 2]


# ----------------------------------------------------------------------
# incident dumps: exactly once per incident
# ----------------------------------------------------------------------
def test_incident_dumper_fires_once_per_key(tmp_path):
    recorder = FlightRecorder(capacity=8)
    dumper = IncidentDumper(recorder, str(tmp_path / "fr"), limit=2)
    first = dumper.dump_once("dropout:device1", reason="device_dropout")
    assert first is not None
    assert dumper.dump_once("dropout:device1",
                            reason="device_dropout") is None
    second = dumper.dump_once("rule:loss", reason="slo-breach")
    assert second is not None and second != first
    # At the limit, new keys are dropped rather than flooding the disk.
    assert dumper.dump_once("third", reason="slo-breach") is None
    assert sorted(dumper.paths) == sorted([first, second])
    assert len(list((tmp_path / "fr").iterdir())) == 2


def test_incident_dumper_validates_knobs(tmp_path):
    recorder = FlightRecorder(capacity=8)
    with pytest.raises(ValueError, match="limit"):
        IncidentDumper(recorder, str(tmp_path), limit=0)


def test_dropout_dumps_exactly_once_per_incident(tmp_path):
    """A demoted device degrades every later step; one dump, not many."""
    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=1, at_op=40),))
    tokens, labels = make_batch()
    engine = quiet(SmartInfinityEngine(
        make_model(), loss_fn, str(tmp_path / "work"),
        config=config(num_csds=2, fault_plan=plan,
                      flight_dump_dir=str(tmp_path / "fr"))))
    try:
        for _ in range(6):
            engine.train_step(tokens, labels)
        stats = engine.fault_stats()
        assert stats["demotions"] == 1
        assert stats["degraded_steps"] >= 2
        dumps = engine.flight_dumps()
    finally:
        engine.close()

    # Two incidents total: the demotion itself plus the SLO rule that
    # watches the dropouts_step signal — each dumped exactly once.
    assert len(dumps) == 2
    by_reason = {}
    for path in dumps:
        records = [json.loads(line) for line in open(path)]
        assert records[0]["schema"] == FLIGHT_SCHEMA
        by_reason[records[0]["reason"]] = records
    assert set(by_reason) == {"device_dropout", "slo-breach"}

    # The demotion dump's tail holds the black-box story: the injected
    # fault event shortly before the end, then the alert that announced
    # the incident as the final record.
    events = by_reason["device_dropout"][1:]
    # The surviving worker may append a few events between the alert and
    # the snapshot, so "tail" is a window, not the literal last slot.
    alerts = [r for r in events if r["kind"] == "alert"]
    assert alerts[-1]["attrs"]["incident"] == "device_dropout:device1"
    alert_at = max(i for i, r in enumerate(events)
                   if r["kind"] == "alert")
    assert len(events) - alert_at <= 10, "alert not in the dump's tail"
    fault_at = max(i for i, record in enumerate(events)
                   if record["name"] == "faults_dropouts_total")
    assert len(events) - fault_at <= 30, \
        "dropout fault event not in the dump's tail"
    incident_alerts = [a for a in engine.alerts if a.kind == "incident"]
    assert [a.rule for a in incident_alerts] == ["device_dropout"]


def test_unwritable_dump_dir_never_kills_a_step(tmp_path):
    """A dump that cannot be written is reported, not raised: the step
    the engine survives (a dropout, demoted) still returns, a step that
    raised keeps its own exception, and no path is claimed."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    tokens, labels = make_batch()
    engine = quiet(SmartInfinityEngine(
        make_model(), loss_fn, str(tmp_path / "work"),
        config=config(num_csds=2, fault_plan=DROPOUT,
                      flight_dump_dir=str(blocker / "fr"))))
    try:
        for _ in range(3):
            engine.train_step(tokens, labels)
        assert engine.fault_stats()["demotions"] == 1
        assert engine.flight_dumps() == []
        health = engine.health_summary()
        assert health["dumps"] == []
        assert len(health["dump_errors"]) == 2  # incident + SLO rule
        assert all("NotADirectoryError" in error
                   for error in health["dump_errors"])

        def broken(model, tokens, labels):
            raise ValueError("boom")

        engine.loss_fn = broken
        with pytest.raises(ValueError, match="boom"):
            engine.train_step(tokens, labels)
        assert engine.flight_dumps() == []
        assert len(engine.health_summary()["dump_errors"]) == 3
        (*_, record) = engine.flight.records
        assert record.error == "ValueError: boom"
        assert record.alerts[-1][0] == "engine_exception"
    finally:
        engine.close()


def test_thread_and_process_dumps_match(tmp_path, monkeypatch):
    """One seeded dropout plan, both backends: the dumps' non-span
    events are equal in order (ts/seq aside), tell injection -> retry ->
    dropout -> demotion -> alert, and are all written on the main
    thread.

    Only the rules a replayable campaign arms are armed (no wall-clock
    or arena signal, whose values differ by backend).  The update is the
    naive loop: the transfer handler's lazy write-back thread shares a
    device's op counter with its loads, so which op (read or write)
    draws a fault depends on thread timing, on either backend — fault
    *counts* agree there (``test_process_backend_chaos_dropout_parity``),
    op labels do not.
    """
    writers = []
    dump = FlightRecorder.dump_jsonl

    def spy(self, path, **kwargs):
        writers.append(threading.current_thread().name)
        return dump(self, path, **kwargs)

    monkeypatch.setattr(FlightRecorder, "dump_jsonl", spy)
    plan = FaultPlan(seed=3, rules=(
        FaultRule(kind="device_dropout", device=1, probability=0.10),
        FaultRule(kind="io_error", probability=0.05)))
    tokens, labels = make_batch()
    dumps = {}
    for backend in ("thread", "process"):
        with telemetry.session():
            engine = quiet(SmartInfinityEngine(
                make_model(), loss_fn, str(tmp_path / backend),
                config=config(num_csds=2, parallel_csds=2,
                              parallel_backend=backend, fault_plan=plan,
                              use_transfer_handler=False,
                              slo_rules=list(SCENARIO_SLO_RULES),
                              flight_dump_dir=str(tmp_path / "fr" /
                                                  backend))))
            try:
                for _ in range(4):
                    engine.train_step(tokens, labels)
                paths = engine.flight_dumps()
            finally:
                engine.close()
        dumps[backend] = [
            [(e["kind"], e["name"], e["attrs"]) for e in read_dump(path)[1:]
             if e["kind"] != "span"] for path in paths]
        assert any(e["kind"] == "span" for e in read_dump(paths[0])[1:])
    assert len(dumps["thread"]) == 2
    assert dumps["thread"] == dumps["process"]
    assert writers == ["MainThread"] * 4

    incident = dumps["thread"][0]
    assert incident[-1][:2] == ("alert", "device_dropout")
    last_step = max(i for i, (kind, _, _) in enumerate(incident)
                    if kind == "step")
    story = [name for kind, name, _ in incident[last_step:]
             if kind == "fault"]
    order = list(METRIC_HELP)
    assert story == sorted(story, key=order.index)
    assert {"faults_injected_total", "faults_retries_total",
            "faults_dropouts_total", "faults_demotions_total"} <= set(story)


def test_chaos_run_is_bit_identical_with_recorder_enabled(tmp_path):
    plan = FaultPlan(
        rules=(FaultRule(kind="device_dropout", device=1, at_op=40),))
    tokens, labels = make_batch()
    results = {}
    for label, flight in (("on", True), ("off", False)):
        engine = quiet(SmartInfinityEngine(
            make_model(), loss_fn, str(tmp_path / label),
            config=config(num_csds=2, fault_plan=plan,
                          flight_recorder=flight)))
        try:
            losses = [engine.train_step(tokens, labels).loss
                      for _ in range(6)]
            results[label] = (losses, engine.space.gather_params())
        finally:
            engine.close()
    assert results["on"][0] == results["off"][0]
    np.testing.assert_array_equal(results["on"][1], results["off"][1])
