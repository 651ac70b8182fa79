"""Unit tests for the telemetry layer: spans, metrics, exporters."""

import json
import threading

import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.sim import Channel, Simulator
from repro.telemetry import (Histogram, MetricsRegistry, SpanTracer,
                             Timeline, chrome_trace,
                             record_channel_metrics, write_chrome_trace)
from repro.telemetry.export import SIM_PID, WALL_PID


class FakeClock:
    """Deterministic injectable clock."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_span_nesting_and_depth():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(0.5)
        clock.advance(0.25)
    outer = tracer.by_name("outer")[0]
    inner = tracer.by_name("inner")[0]
    assert outer.depth == 0 and inner.depth == 1
    assert outer.start <= inner.start
    assert inner.end <= outer.end
    assert inner.duration == pytest.approx(0.5)
    assert outer.duration == pytest.approx(1.75)


def test_span_attrs_settable_while_open():
    tracer = SpanTracer(clock=FakeClock())
    with tracer.span("step", engine="smart") as span:
        span.set(loss=1.25)
    recorded = tracer.spans[0]
    assert recorded.attrs == {"engine": "smart", "loss": 1.25}


def test_explicit_begin_end_tokens():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    token = tracer.begin("work", item=3)
    clock.advance(2.0)
    span = tracer.end(token, result="ok")
    assert span.duration == pytest.approx(2.0)
    assert span.attrs == {"item": 3, "result": "ok"}
    with pytest.raises(TelemetryError):
        tracer.end(token)


def test_spans_record_thread_identity():
    tracer = SpanTracer()

    def work():
        with tracer.span("threaded"):
            pass

    thread = threading.Thread(target=work, name="worker-7")
    thread.start()
    thread.join()
    with tracer.span("main"):
        pass
    threaded = tracer.by_name("threaded")[0]
    main = tracer.by_name("main")[0]
    assert threaded.thread_name == "worker-7"
    assert threaded.thread_id != main.thread_id


def test_abandoned_inner_span_does_not_corrupt_depth():
    tracer = SpanTracer(clock=FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("abandoned")  # never ended explicitly
    tracer.end(outer)          # pops through the abandoned token
    with tracer.span("next"):
        pass
    assert tracer.by_name("next")[0].depth == 0


def test_span_exiting_via_exception_is_marked():
    with telemetry.session() as session:
        with pytest.raises(ValueError, match="boom"):
            with telemetry.trace_span("doomed", device=3):
                raise ValueError("boom")
        with telemetry.trace_span("fine"):
            pass
    doomed = session.tracer.by_name("doomed")[0]
    # The span still closes (duration recorded) and carries the error.
    assert doomed.attrs["status"] == "error"
    assert doomed.attrs["error"] == "ValueError: boom"
    assert doomed.attrs["device"] == 3
    fine = session.tracer.by_name("fine")[0]
    assert "status" not in fine.attrs and "error" not in fine.attrs
    assert fine.depth == 0          # the failed span left the stack


def test_span_exception_flows_to_flight_recorder(tmp_path):
    """A step that dies inside a span still leaves its record: the
    errored span, the step event with the error, then the incident
    alert — in that order, the dump's tail."""
    import numpy as np

    from repro.nn import SequenceClassifier, bert_config
    from repro.runtime import SmartInfinityEngine, TrainingConfig

    def crashing(model, tokens, labels):
        with telemetry.trace_span("crashing"):
            raise RuntimeError("dead")

    model = SequenceClassifier(
        bert_config(vocab_size=32, dim=32, num_layers=1, num_heads=2,
                    max_seq_len=8), num_classes=2, seed=0)
    tokens = np.zeros((2, 8), dtype=np.int64)
    labels = np.zeros(2, dtype=np.int64)
    with telemetry.session():
        with SmartInfinityEngine(model, crashing, str(tmp_path),
                                 config=TrainingConfig()) as engine:
            with pytest.raises(RuntimeError, match="dead"):
                engine.train_step(tokens, labels)
            events = [e for e in engine.flight.events()
                      if e["kind"] != "span" or e["name"] == "crashing"]
    assert [(e["kind"], e["name"]) for e in events] == [
        ("span", "crashing"), ("step", "train_step"),
        ("alert", "engine_exception")]
    span, step, alert = events
    assert span["attrs"]["status"] == "error"
    assert span["attrs"]["error"] == "RuntimeError: dead"
    assert step["attrs"]["error"] == "RuntimeError: dead"
    assert alert["attrs"]["incident"] == "engine_exception:RuntimeError"


# ----------------------------------------------------------------------
# global session gating
# ----------------------------------------------------------------------
def test_telemetry_disabled_by_default():
    assert not telemetry.enabled()
    # All helpers are no-ops and never raise when disabled.
    with telemetry.trace_span("nothing") as span:
        span.set(ignored=True)
    assert telemetry.span_begin("nothing") is None
    telemetry.span_end(None)


def test_session_scoping_restores_previous_state():
    assert not telemetry.enabled()
    with telemetry.session() as outer_session:
        assert telemetry.enabled()
        with telemetry.trace_span("visible"):
            pass
        with telemetry.session() as inner_session:
            assert telemetry.active() is inner_session
        assert telemetry.active() is outer_session
    assert not telemetry.enabled()
    assert len(outer_session.tracer.by_name("visible")) == 1


def test_module_helpers_feed_active_session():
    """The helpers record spans only: nothing but an engine closing a
    step writes the registry."""
    with telemetry.session() as session:
        with telemetry.trace_span("op"):
            pass
        telemetry.span_end(telemetry.span_begin("explicit"), done=True)
    assert session.registry.snapshot() == {}
    assert session.tracer.by_name("op")
    assert session.tracer.by_name("explicit")[0].attrs["done"] is True


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    with pytest.raises(TelemetryError):
        registry.counter("c").inc(-1)


def test_gauge_tracks_peak():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue_depth")
    gauge.set(3)
    gauge.set(7)
    gauge.set(2)
    assert gauge.value == 2
    assert gauge.peak == 7


def test_histogram_buckets_sum_count():
    hist = Histogram((1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(555.5)
    assert hist.bucket_counts == [1, 1, 1, 1]
    assert hist.cumulative() == [1, 2, 3, 4]
    assert hist.mean() == pytest.approx(555.5 / 4)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(TelemetryError):
        Histogram(())
    with pytest.raises(TelemetryError):
        Histogram((5.0, 1.0))


def test_registry_get_or_create_and_kind_clash():
    registry = MetricsRegistry()
    assert registry.counter("m", device=0) is registry.counter("m",
                                                               device=0)
    assert registry.counter("m", device=1) is not registry.counter(
        "m", device=0)
    with pytest.raises(TelemetryError):
        registry.gauge("m")


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("reads_total", device="ssd0").inc(3)
    registry.gauge("depth").set(2)
    registry.histogram("lat_us", buckets=(10.0, 100.0)).observe(42.0)
    text = registry.render_prometheus()
    assert '# TYPE reads_total counter' in text
    assert 'reads_total{device="ssd0"} 3' in text
    assert "# TYPE depth gauge" in text
    assert 'lat_us_bucket{le="10"} 0' in text
    assert 'lat_us_bucket{le="100"} 1' in text
    assert 'lat_us_bucket{le="+Inf"} 1' in text
    assert "lat_us_sum 42" in text
    assert "lat_us_count 1" in text
    # One TYPE line per metric, even with several label sets.
    registry.counter("reads_total", device="ssd1").inc(1)
    text = registry.render_prometheus()
    assert text.count("# TYPE reads_total counter") == 1


def test_exposition_escapes_label_values():
    # Prometheus exposition format: backslash, double-quote and newline
    # must be escaped inside quoted label values.
    registry = MetricsRegistry()
    registry.counter("ops_total", path='dir\\file "v1"\nnext').inc(1)
    text = registry.render_prometheus()
    assert r'path="dir\\file \"v1\"\nnext"' in text
    assert '\nnext' not in text.split("ops_total", 1)[1].split("\n", 1)[0]


def test_exposition_emits_help_lines():
    registry = MetricsRegistry()
    registry.describe("reads_total", 'Reads issued ("guarded")\nper device.')
    registry.counter("reads_total", device="ssd0").inc(1)
    registry.gauge("depth").set(2)
    text = registry.render_prometheus()
    # Described metric: the given text, with newlines escaped, on one line.
    assert ('# HELP reads_total Reads issued ("guarded")\\nper device.'
            in text)
    # Undescribed metric: a placeholder HELP line, never a missing one.
    assert "# HELP depth" in text
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            name = line.split()[2]
            assert f"# HELP {name} " in text
    # HELP precedes TYPE for each family.
    assert text.index("# HELP reads_total") < text.index(
        "# TYPE reads_total")


def test_describe_latest_text_wins():
    registry = MetricsRegistry()
    registry.describe("x_total", "first")
    registry.describe("x_total", "second")
    registry.counter("x_total").inc(1)
    text = registry.render_prometheus()
    assert "# HELP x_total second" in text
    assert "first" not in text


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def make_des_activity():
    sim = Simulator()
    channel = Channel(sim, "link", bandwidth=100.0)
    channel.transfer(50.0, tag="grads")
    channel.transfer(100.0, tag="masters")
    sim.run()
    return channel


def test_chrome_trace_has_both_time_domains():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(0.5)
    channel = make_des_activity()
    doc = chrome_trace(spans=tracer.spans,
                       sim=Timeline.from_channels(
                           [channel], [("update", 0.0, 1.5)]),
                       metadata={"note": "test"})
    events = doc["traceEvents"]
    assert {e["pid"] for e in events} == {WALL_PID, SIM_PID}
    process_names = {e["args"]["name"] for e in events
                     if e.get("name") == "process_name"}
    assert process_names == {"wall-clock", "sim-time"}
    assert doc["otherData"] == {"note": "test"}

    # Wall spans nest by interval containment on the same lane.
    walls = {e["name"]: e for e in events
             if e["ph"] == "X" and e["pid"] == WALL_PID}
    inner, outer = walls["inner"], walls["outer"]
    assert inner["tid"] == outer["tid"]
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    # Sim records carry bytes and land on a named channel lane.
    sims = [e for e in events if e["ph"] == "X" and e["pid"] == SIM_PID
            and e["args"].get("channel") == "link"]
    assert {e["name"] for e in sims} == {"grads", "masters"}
    assert sum(e["args"]["nbytes"] for e in sims) == pytest.approx(150.0)
    phases = [e for e in events if e.get("cat") == "sim-phase"]
    assert phases[0]["name"] == "update"
    assert phases[0]["dur"] == pytest.approx(1.5e6)


def test_write_chrome_trace_round_trips(tmp_path):
    channel = make_des_activity()
    path = str(tmp_path / "out.trace.json")
    assert write_chrome_trace(
        path, sim=Timeline.from_channels([channel], [])) == path
    with open(path) as handle:
        doc = json.load(handle)
    assert isinstance(doc["traceEvents"], list)
    assert doc["displayTimeUnit"] == "ms"


def test_record_channel_metrics_bridge():
    channel = make_des_activity()
    registry = MetricsRegistry()
    record_channel_metrics(registry, [channel], horizon=1.5,
                           method="su_o_c")
    snap = registry.snapshot()
    key = 'des_channel_bytes_total{channel="link",method="su_o_c"}'
    assert snap[key]["value"] == pytest.approx(150.0)
    util = snap['des_channel_utilization{channel="link",method="su_o_c"}']
    assert util["value"] == pytest.approx(1.0)
