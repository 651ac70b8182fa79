"""Flight-recorder invariants: bounded memory, ordered merge, dump-once.

The recorder is the observability layer's black box, so its own claims
need pinning:

* memory is bounded by ``workers x capacity`` events no matter how long
  the run (sustained-load test);
* the merged dump is totally ordered by global sequence number across
  worker threads;
* an incident triggers exactly one automatic dump, even though a
  dropped-out device degrades every subsequent step;
* recording changes nothing about training: a chaos run with the
  recorder enabled is bit-identical to the same run with it disabled.
"""

import json
import threading

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule
from repro.nn import SequenceClassifier, bert_config
from repro.runtime import SmartInfinityEngine, TrainingConfig
from repro.telemetry.flight import (DEFAULT_CAPACITY, FLIGHT_SCHEMA,
                                    FlightRecorder, IncidentDumper,
                                    active_recorder, install,
                                    record_event, replace)

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


# ----------------------------------------------------------------------
# ring segments: bounded memory
# ----------------------------------------------------------------------
def test_memory_bounded_under_sustained_single_thread_load():
    recorder = FlightRecorder(capacity_per_worker=64)
    for i in range(10_000):
        recorder.record("step", "tick", {"i": i})
    stats = recorder.stats()
    assert stats["workers"] == 1
    assert stats["events_recorded"] == 10_000
    assert stats["events_retained"] == 64
    assert stats["events_dropped"] == 10_000 - 64
    events = recorder.events()
    assert len(events) == 64
    # The ring keeps the NEWEST events — the ones a post-mortem wants.
    assert [e["attrs"]["i"] for e in events] == list(range(9936, 10_000))


def test_memory_bounded_under_sustained_multi_thread_load():
    recorder = FlightRecorder(capacity_per_worker=32)
    workers = 4

    def hammer(worker):
        for i in range(2_000):
            recorder.record("metric", f"w{worker}", {"i": i})

    threads = [threading.Thread(target=hammer, args=(w,))
               for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = recorder.stats()
    assert stats["workers"] == workers
    assert stats["events_recorded"] == workers * 2_000
    assert stats["events_retained"] == workers * 32
    assert len(recorder.events()) == workers * 32


def test_capacity_validation_and_default():
    assert FlightRecorder().capacity_per_worker == DEFAULT_CAPACITY
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity_per_worker=0)


# ----------------------------------------------------------------------
# merge-on-dump: total order across workers
# ----------------------------------------------------------------------
def test_merged_events_are_totally_ordered_across_workers():
    recorder = FlightRecorder(capacity_per_worker=256)
    barrier = threading.Barrier(3)

    def worker(name):
        barrier.wait()
        for i in range(200):
            recorder.record("span", name, {"i": i})

    threads = [threading.Thread(target=worker, args=(f"w{n}",),
                                name=f"flight-w{n}") for n in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    events = recorder.events()
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs)), "global sequence must be unique"
    # Within one worker the order of its own events is preserved.
    for n in range(3):
        own = [e["attrs"]["i"] for e in events
               if e["name"] == f"w{n}"]
        assert own == sorted(own)
    assert {e["thread"] for e in events} == {f"flight-w{n}"
                                             for n in range(3)}


def test_span_event_refers_to_the_span_it_renders():
    """A span end puts the finished ``Span`` itself in the ring — one
    record, no copy; its attrs (which may hold keys like "kind") and
    duration are rendered only when somebody reads the events."""
    from repro.telemetry import SpanTracer, flight

    recorder = FlightRecorder(capacity_per_worker=8)
    previous = flight.install(recorder)
    try:
        tracer = SpanTracer(clock=iter([0.0, 1.0, 1.5]).__next__)
        with tracer.span("s", kind="payload", device=1):
            pass
    finally:
        flight.replace(recorder, previous)
    (span,) = tracer.spans
    (slot,) = recorder._segment().tail(8)
    assert slot[4] is span
    (event,) = recorder.events()
    assert event["kind"] == "span"
    assert event["attrs"] == {"kind": "payload", "device": 1,
                              "duration": 0.5}


def test_dump_jsonl_round_trips_schema_and_meta(tmp_path):
    recorder = FlightRecorder(capacity_per_worker=8)
    recorder.record("fault", "faults_dropouts_total", {"device": 1})
    path = recorder.dump_jsonl(str(tmp_path / "dump.jsonl"),
                               reason="unit-test", step=12)
    records = [json.loads(line) for line in open(path)]
    head, events = records[0], records[1:]
    assert head["type"] == "meta"
    assert head["schema"] == FLIGHT_SCHEMA
    assert head["reason"] == "unit-test"
    assert head["step"] == 12
    assert head["events_recorded"] == 1
    assert [e["name"] for e in events] == ["faults_dropouts_total"]


# ----------------------------------------------------------------------
# installation protocol
# ----------------------------------------------------------------------
def test_install_replace_protocol_tolerates_overlapping_lifetimes():
    outer = FlightRecorder()
    inner = FlightRecorder()
    prev0 = install(outer)
    try:
        assert active_recorder() is outer
        prev1 = install(inner)
        assert prev1 is outer
        # Outer tears down first (out of order): it must NOT clobber
        # inner, which is still the active recorder.
        replace(outer, prev0)
        assert active_recorder() is inner
        replace(inner, prev1)
        assert active_recorder() is outer
    finally:
        replace(outer, prev0)
        install(prev0)
    record_event("step", "noop")  # no recorder installed: must not raise


# ----------------------------------------------------------------------
# incident dumps: exactly once per incident
# ----------------------------------------------------------------------
def test_incident_dumper_fires_once_per_key(tmp_path):
    recorder = FlightRecorder(capacity_per_worker=8)
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
    recorder = FlightRecorder(capacity_per_worker=8)
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
