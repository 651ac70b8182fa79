"""Phase x resource attribution: conservation, ownership, verdicts.

The tentpole invariant: for any attributed run, the phase x resource
buckets tile the step exactly — ``sum(buckets) == step_seconds`` up to
float rounding — and the bottleneck verdict names the resource with the
highest busy fraction.  Checked here on hand-built windows (where the
right answer is arithmetic), on DES traces of all three paper modes
(baseline / SU / SU+O+C), on wall-clock spans from a fake-clock tracer,
and through a Chrome-trace write/load round trip.
"""

import json

import pytest

from repro.errors import TelemetryError
from repro.hw.topology import default_system
from repro.nn.models import get_model
from repro.perf.analysis import Observation, observe, resolve
from repro.perf.scenarios import METHODS, SCHEDULES, trace_scenario
from repro.perf.workload import make_workload
from repro.telemetry import (COMPUTE, DepGraph, SpanTracer, Timeline,
                             attribute, attribute_channels, chrome_trace,
                             merge_intervals, render_top,
                             write_chrome_trace, write_events_jsonl)
from repro.telemetry.profiler import EVENTS_SCHEMA


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# interval plumbing
# ----------------------------------------------------------------------

def test_merge_intervals_unions_overlaps():
    merged = merge_intervals([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0),
                              (2.0, 2.5), (5.0, 5.0)])
    assert merged == [(0.0, 2.5), (3.0, 4.0)]


# ----------------------------------------------------------------------
# synthetic attributions: the right answer is arithmetic
# ----------------------------------------------------------------------

def test_idle_phase_goes_to_compute():
    attribution = attribute([("update", 0.0, 1.0)], {})
    assert attribution.buckets == {("update", COMPUTE): 1.0}
    verdict = attribution.verdict()
    assert verdict.resource == COMPUTE
    assert verdict.owned_fraction == 1.0


def test_busiest_active_resource_owns_contested_slices():
    # A busy 2s, B busy 8s; they overlap in [1, 2).  B is the busier
    # resource of the phase, so the contested slice belongs to B.
    attribution = attribute(
        [("update", 0.0, 10.0)],
        {"A": [(0.0, 2.0)], "B": [(1.0, 9.0)]})
    assert attribution.buckets[("update", "A")] == pytest.approx(1.0)
    assert attribution.buckets[("update", "B")] == pytest.approx(8.0)
    assert attribution.buckets[("update", COMPUTE)] == pytest.approx(1.0)
    assert attribution.conservation_error() < 1e-12
    assert attribution.verdict().resource == "B"


def test_equal_weight_tie_breaks_lexicographically():
    attribution = attribute(
        [("p", 0.0, 10.0)],
        {"b-link": [(4.0, 10.0)], "a-link": [(0.0, 6.0)]})
    # Both are busy 6s; the overlap [4, 6) goes to the lexicographically
    # first name so the decomposition is deterministic.
    assert attribution.buckets[("p", "a-link")] == pytest.approx(6.0)
    assert attribution.buckets[("p", "b-link")] == pytest.approx(4.0)
    assert attribution.verdict().resource == "a-link"


def test_overlapping_phase_windows_rejected():
    with pytest.raises(TelemetryError, match="overlap"):
        attribute([("fwd", 0.0, 2.0), ("update", 1.0, 3.0)], {})


def test_phase_totals_and_fractions_are_consistent():
    attribution = attribute(
        [("fwd", 0.0, 2.0), ("update", 2.0, 5.0)],
        {"link": [(0.5, 1.0), (2.0, 4.0)]},
        bytes_by_resource={"link": 1e9}, capacities={"link": 2e9})
    totals = attribution.phase_totals()
    assert totals["fwd"] == pytest.approx(2.0)
    assert totals["update"] == pytest.approx(3.0)
    assert sum(attribution.fractions().values()) == pytest.approx(1.0)
    usage = attribution.usage["link"]
    assert usage.busy_seconds == pytest.approx(2.5)
    assert usage.utilization == pytest.approx(2.5 / 5.0)
    assert usage.bytes_total == 1e9
    assert usage.capacity == 2e9


# ----------------------------------------------------------------------
# DES traces: all three paper modes conserve and name the right link
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", ["baseline", "su", "su_o_c"])
def test_conservation_on_simulated_iteration(method):
    workload = make_workload(get_model("gpt2-1.16b"))
    system = default_system(num_csds=4)
    trace = trace_scenario(system, workload, method)
    attribution = attribute_channels(
        trace.phase_windows, trace.fabric.all_channels(),
        horizon=trace.breakdown.total)

    # Buckets tile the step exactly (drift re-tiling absorbs rounding).
    assert attribution.step_seconds == pytest.approx(
        trace.breakdown.total)
    assert sum(attribution.buckets.values()) == pytest.approx(
        trace.breakdown.total, rel=1e-12)
    assert attribution.conservation_error() <= 1e-9 * trace.breakdown.total

    # Phase totals reproduce the PhaseClock breakdown.
    totals = attribution.phase_totals()
    assert totals["forward"] == pytest.approx(trace.breakdown.forward)
    assert totals["backward_grad"] == pytest.approx(
        trace.breakdown.backward_grad)
    assert totals["update"] == pytest.approx(trace.breakdown.update)


@pytest.mark.parametrize("method", ["baseline", "su", "su_o_c"])
def test_verdict_matches_busiest_channel(method):
    workload = make_workload(get_model("gpt2-1.16b"))
    system = default_system(num_csds=4)
    trace = trace_scenario(system, workload, method)
    horizon = trace.breakdown.total
    attribution = attribute_channels(
        trace.phase_windows, trace.fabric.all_channels(), horizon=horizon)

    # Independent computation straight off the Fabric: the channel with
    # the highest busy fraction over the same horizon.
    active = [channel for channel in trace.fabric.all_channels()
              if channel.records]
    expected = max(sorted(active, key=lambda c: c.name),
                   key=lambda c: c.utilization(horizon))
    verdict = attribution.verdict()
    assert verdict.resource == expected.name
    assert verdict.utilization == pytest.approx(
        min(1.0, expected.utilization(horizon)))
    assert 0.0 < verdict.owned_fraction <= 1.0


def test_baseline_bottleneck_is_host_side_su_moves_it_to_nand():
    """The paper's Fig. 3b -> §IV-A story at the 10-device scale."""
    workload = make_workload(get_model("gpt2-4.0b"))
    system = default_system(num_csds=10)

    def verdict(method):
        trace = trace_scenario(system, workload, method)
        return attribute_channels(
            trace.phase_windows, trace.fabric.all_channels(),
            horizon=trace.breakdown.total).verdict()

    assert verdict("baseline").resource.startswith("host-link")
    assert verdict("su").resource.startswith("ssd")


# ----------------------------------------------------------------------
# wall-clock spans
# ----------------------------------------------------------------------

def test_attribute_spans_from_fake_clock_tracer():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    with tracer.span("forward_backward"):
        clock.advance(1.0)
    with tracer.span("grad_offload"):
        clock.advance(0.2)
        with tracer.span("grad_offload.write",
                         resource="host-link-down", nbytes=100.0):
            clock.advance(0.6)
        clock.advance(0.2)
    with tracer.span("update"):
        with tracer.span("host_update", resource="host-cpu"):
            clock.advance(1.5)
        clock.advance(0.5)

    attribution = Timeline.from_spans(tracer.spans).attribution()
    assert attribution.step_seconds == pytest.approx(4.0)
    assert attribution.buckets[("forward_backward", COMPUTE)] == \
        pytest.approx(1.0)
    assert attribution.buckets[("grad_offload", "host-link-down")] == \
        pytest.approx(0.6)
    assert attribution.buckets[("grad_offload", COMPUTE)] == \
        pytest.approx(0.4)
    assert attribution.buckets[("update", "host-cpu")] == \
        pytest.approx(1.5)
    assert attribution.buckets[("update", COMPUTE)] == pytest.approx(0.5)
    assert attribution.conservation_error() < 1e-12
    assert attribution.usage["host-link-down"].bytes_total == 100.0
    # host-cpu is busy 1.5s of 4.0s; host-link-down only 0.6s.
    assert attribution.verdict().resource == "host-cpu"


# ----------------------------------------------------------------------
# profiler surfaces: sim profile, trace round trip, renders, JSONL
# ----------------------------------------------------------------------

def test_profile_scenario_conserves_and_renders():
    report = observe(*resolve("gpt2-1.16b", 2), "su")
    attribution = report.attribution
    assert report.source == "sim"
    assert attribution.conservation_error() <= \
        1e-9 * attribution.step_seconds
    text = render_top(report)
    assert "bottleneck observatory" in text
    assert "bottleneck:" in text
    assert attribution.verdict().resource in text
    # Every phase appears in the ownership table.
    for phase in attribution.phases:
        assert phase in text


def test_chrome_trace_round_trip_preserves_attribution(tmp_path):
    workload = make_workload(get_model("gpt2-1.16b"))
    system = default_system(num_csds=2)
    trace = trace_scenario(system, workload, "su_o_c")
    direct = attribute_channels(
        trace.phase_windows, trace.fabric.all_channels(),
        horizon=trace.breakdown.total)

    path = str(tmp_path / "trace.json")
    write_chrome_trace(path, sim=Timeline.from_channels(
        trace.fabric.all_channels(), trace.phase_windows),
        metadata={"method": "su_o_c"})
    report = Observation.from_chrome_trace(path)

    assert report.source == "trace"
    assert report.meta["method"] == "su_o_c"
    loaded = report.attribution
    # Microsecond quantization in the trace format bounds the error.
    assert loaded.step_seconds == pytest.approx(direct.step_seconds,
                                                abs=1e-4)
    assert loaded.conservation_error() <= 1e-9 * loaded.step_seconds
    assert loaded.verdict().resource == direct.verdict().resource
    for key, seconds in direct.buckets.items():
        assert loaded.buckets.get(key, 0.0) == pytest.approx(
            seconds, abs=1e-3)


def test_load_chrome_trace_falls_back_to_wall_spans(tmp_path):
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    with tracer.span("update"):
        with tracer.span("host_update", resource="host-cpu"):
            clock.advance(2.0)
        clock.advance(1.0)
    path = str(tmp_path / "wall.json")
    write_chrome_trace(path, spans=tracer.spans)
    report = Observation.from_chrome_trace(path)
    assert report.attribution.buckets[("update", "host-cpu")] == \
        pytest.approx(2.0)
    assert report.attribution.verdict().resource == "host-cpu"


def test_load_chrome_trace_rejects_empty_trace(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"traceEvents": []}))
    with pytest.raises(TelemetryError, match="nothing to attribute"):
        Observation.from_chrome_trace(str(path))


def test_events_jsonl_schema_and_conservation(tmp_path):
    report = observe(*resolve("gpt2-1.16b", 2), "baseline")
    path = str(tmp_path / "events.jsonl")
    write_events_jsonl(path, report)
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]

    meta = lines[0]
    assert meta["type"] == "meta"
    assert meta["schema"] == EVENTS_SCHEMA
    assert meta["source"] == "sim"

    buckets = [line for line in lines if line["type"] == "bucket"]
    assert buckets
    assert sum(line["seconds"] for line in buckets) == pytest.approx(
        meta["step_seconds"])
    assert sum(line["fraction"] for line in buckets) == pytest.approx(1.0)

    verdict = lines[-1]
    assert verdict["type"] == "verdict"
    assert verdict["rendered"].startswith("bottleneck: ")
    utilization = {line["resource"]: line["utilization"]
                   for line in lines if line["type"] == "utilization"}
    assert verdict["resource"] in utilization
    assert verdict["utilization"] == max(utilization.values())


# ----------------------------------------------------------------------
# process backend: conservation holds on a real multi-process run
# ----------------------------------------------------------------------

def test_conservation_under_process_backend(tmp_path):
    """Wall-clock attribution conserves when shards run in worker
    processes — spans recorded around cross-process dispatch must still
    tile the step exactly."""
    import numpy as np

    from repro import telemetry as tel
    from repro.runtime import SmartInfinityEngine, TrainingConfig

    from repro.nn import SequenceClassifier, bert_config

    model = SequenceClassifier(
        bert_config(vocab_size=16, dim=32, num_layers=1, num_heads=2,
                    max_seq_len=8),
        num_classes=2, seed=0)
    config = TrainingConfig(optimizer="adam",
                            optimizer_kwargs={"lr": 1e-2},
                            subgroup_elements=512,
                            num_csds=2,
                            parallel_backend="process",
                            parallel_csds=2)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(4, 8))
    labels = rng.integers(0, 2, size=4)

    def loss(m, t, y):
        return m.loss(t, y)

    engine = SmartInfinityEngine(model, loss, str(tmp_path / "proc"),
                                 config=config)
    try:
        with tel.session() as session:
            engine.train_step(tokens, labels)
    finally:
        engine.close()

    attribution = Timeline.from_spans(session.tracer.spans).attribution()
    assert attribution.step_seconds > 0.0
    assert sum(attribution.buckets.values()) == pytest.approx(
        attribution.step_seconds, rel=1e-9)
    assert attribution.conservation_error() <= \
        1e-9 * attribution.step_seconds


# ----------------------------------------------------------------------
# one Timeline, three sources: the Chrome document round-trips
# ----------------------------------------------------------------------

def _same_reading(direct, loaded):
    """Same buckets (the file stores microseconds: 1e-9 of the step),
    same verdict, same critical-path hop sequence."""
    a, b = direct.attribution(), loaded.attribution()
    tolerance = 1e-9 * a.step_seconds
    assert b.step_seconds == pytest.approx(a.step_seconds, rel=1e-9)
    for key in a.buckets.keys() | b.buckets.keys():
        assert abs(a.buckets.get(key, 0.0)
                   - b.buckets.get(key, 0.0)) <= tolerance, key
    assert b.verdict().resource == a.verdict().resource
    assert b.verdict().utilization == pytest.approx(
        a.verdict().utilization, rel=1e-9)
    hops = [[(step.resource, step.tag)
             for step in DepGraph(timeline).critical_path().path]
            for timeline in (direct, loaded)]
    assert hops[0] and hops[0] == hops[1]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("method", METHODS)
def test_chrome_document_round_trips_a_des_timeline(method, schedule):
    trace = trace_scenario(default_system(num_csds=4),
                           make_workload(get_model("gpt2-1.16b")), method,
                           schedule=schedule)
    direct = Timeline.from_channels(trace.fabric.all_channels(),
                                    trace.phase_windows)
    document = json.loads(json.dumps(chrome_trace(sim=direct)))
    _same_reading(direct, Timeline.from_chrome(document))


def test_chrome_document_round_trips_recorded_spans():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    with tracer.span("forward_backward"):
        clock.advance(0.7)
    with tracer.span("grad_offload"):
        for device in range(2):
            with tracer.span("write", resource=f"ssd{device}-write",
                             nbytes=64.0):
                clock.advance(0.3)
    with tracer.span("update"):
        with tracer.span("p2p", resource="ssd0-read", nbytes=32.0):
            clock.advance(0.2)
        with tracer.span("kernel", resource="csd0-updater"):
            clock.advance(0.4)
        clock.advance(0.1)
    document = json.loads(json.dumps(chrome_trace(spans=tracer.spans)))
    _same_reading(Timeline.from_spans(tracer.spans),
                  Timeline.from_chrome(document))
