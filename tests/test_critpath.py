"""Critical-path observatory: DAG invariants, replay, what-if gates.

The tentpole claims, checked here:

* **conservation** — the critical path's busy time never exceeds the
  step wall time, every node's slack is non-negative, and the path's
  per-resource busy seconds reconcile with (never exceed) the
  attribution layer's busy buckets;
* **identity** — a ``scale(channel, 1.0)`` intervention projects
  EXACTLY the measured step time (by construction, not float luck);
* **accuracy** — single-channel scalings on the paper modes project a
  step time within 5% of a full DES re-run with the channel's
  bandwidth actually changed (:func:`repro.perf.analysis.validate_scale`);
* the intervention algebra (scale / add_csds / compression_ratio),
  ranking, and the ``smart-infinity/critpath/v1`` JSONL export behave
  as documented.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.hw.topology import default_system
from repro.nn.models import get_model
from repro.perf.analysis import observe, resolve, validate_scale
from repro.perf.scenarios import trace_scenario
from repro.perf.workload import make_workload
from repro.sim.resources import TransferRecord
from repro.telemetry import SpanTracer, Timeline, attribute_channels
from repro.telemetry.critpath import (CRITPATH_SCHEMA, DepGraph,
                                      add_csds, compression_ratio,
                                      default_interventions,
                                      project, rank_interventions,
                                      render_projections, scale,
                                      write_critpath_jsonl)


def _trace(method, model="gpt2-1.16b", csds=4):
    workload = make_workload(get_model(model))
    system = default_system(num_csds=csds)
    return trace_scenario(system, workload, method)


def _graph(trace):
    return DepGraph.from_channels(trace.fabric.all_channels(),
                                  trace.phase_windows)


def _from_intervals(busy, phase_windows):
    """The graph of bare per-resource busy intervals (FIFO order)."""
    return DepGraph(Timeline(
        phases=list(phase_windows),
        ops={name: [TransferRecord(name, "", 0.0, start, end)
                   for start, end in intervals]
             for name, intervals in busy.items()}))


@functools.lru_cache(maxsize=None)
def _base(method):
    """One observed base per method for every validation below: each
    call then only runs its own counterfactual re-simulation."""
    return observe(*resolve("gpt2-1.16b", 4), method)


# ----------------------------------------------------------------------
# conservation invariants on DES traces of all paper modes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", ["su", "su_o", "su_o_c"])
def test_path_and_slack_invariants(method):
    trace = _trace(method)
    graph = _graph(trace)
    report = graph.critical_path()

    assert graph.nodes, "DES trace must yield tracked operations"
    # Path busy + waits tile the makespan exactly; busy alone never
    # exceeds the step wall time.
    assert report.path_seconds <= report.step_seconds * (1 + 1e-9)
    assert (report.path_seconds + report.wait_seconds
            == pytest.approx(graph.makespan, rel=1e-9))
    assert report.makespan <= report.step_seconds * (1 + 1e-9)


@pytest.mark.parametrize("method", ["su", "su_o", "su_o_c"])
def test_slack_nonnegative_and_path_nodes_tight(method):
    trace = _trace(method)
    graph = _graph(trace)
    report = graph.critical_path()
    assert len(report.slack) == len(graph.nodes)
    assert all(s >= 0.0 for s in report.slack)
    # The last path node determines the makespan: zero slack.
    last = report.path[-1]
    terminal = max(graph.nodes, key=lambda n: (n.end, -n.index))
    assert last.end == terminal.end
    assert report.slack[terminal.index] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("method", ["su", "su_o", "su_o_c"])
def test_path_resources_reconcile_with_attribution(method):
    trace = _trace(method)
    graph = _graph(trace)
    report = graph.critical_path()
    attribution = attribute_channels(
        trace.phase_windows, trace.fabric.all_channels(),
        horizon=trace.breakdown.total)
    for resource, seconds in report.resource_seconds().items():
        busy = attribution.usage[resource].busy_seconds
        assert seconds <= busy * (1 + 1e-9), (
            f"{resource}: path busy {seconds} exceeds attributed "
            f"busy {busy}")


def test_path_steps_are_causally_ordered():
    graph = _graph(_trace("su_o_c"))
    report = graph.critical_path()
    for prev, step in zip(report.path, report.path[1:]):
        assert step.start >= prev.end - 1e-12
        assert step.wait == pytest.approx(
            max(0.0, step.start - prev.end), abs=1e-12)


# ----------------------------------------------------------------------
# replay: identity is exact, edits are monotone
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", ["su", "su_o", "su_o_c"])
def test_identity_projection_is_exact(method):
    trace = _trace(method)
    graph = _graph(trace)
    for channel in (graph.resources()[0], "host-link-down"):
        projection = project(graph, scale(channel, 1.0))
        assert projection.projected_step_seconds == graph.step_seconds
        assert projection.reduction_seconds == 0.0
    starts, ends, makespan = graph.replay()
    assert starts == graph.measured_starts
    assert ends == graph.measured_ends
    assert makespan == graph.makespan


def test_slowing_a_path_channel_never_speeds_the_step():
    graph = _graph(_trace("su_o_c"))
    busiest = graph.resources()[0]
    slower = project(graph, scale(busiest, 2.0))
    faster = project(graph, scale(busiest, 0.5))
    assert slower.projected_step_seconds >= graph.step_seconds
    assert faster.projected_step_seconds <= graph.step_seconds


def test_replay_rejects_wrong_duration_count():
    graph = _graph(_trace("su"))
    with pytest.raises(TelemetryError, match="durations"):
        graph.replay([1.0])


# ----------------------------------------------------------------------
# accuracy: projection vs a DES re-run (the 5% acceptance gate)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method", ["su", "su_o", "su_o_c"])
@pytest.mark.parametrize("channel,factor", [
    ("host-link-down", 1.5),
    ("ssd0-write", 1.5),
    ("csd0-updater", 0.5),
])
def test_projection_within_5pct_of_des_rerun(method, channel, factor):
    validation = validate_scale(_base(method), channel, factor)
    assert validation.error <= 0.05, validation.render()


def test_validate_scale_identity_is_zero_error():
    validation = validate_scale(_base("su_o_c"), "host-link-down", 1.0)
    assert validation.error == pytest.approx(0.0, abs=1e-12)
    assert validation.projected_step_seconds == pytest.approx(
        validation.baseline_step_seconds)


def test_validate_scale_rejects_unknown_channel():
    with pytest.raises(TelemetryError, match="unknown channel"):
        validate_scale(_base("su_o_c"), "warp-core", 1.5)


# ----------------------------------------------------------------------
# interventions and ranking
# ----------------------------------------------------------------------

def test_rank_interventions_sorted_by_reduction():
    graph = _graph(_trace("su_o_c"))
    ranked = rank_interventions(graph, default_interventions(graph))
    assert ranked
    reductions = [p.reduction_seconds for p in ranked]
    assert reductions == sorted(reductions, reverse=True)
    text = render_projections(ranked)
    assert "what-if projections" in text
    for projection in ranked:
        assert projection.label in text


def test_default_interventions_cover_the_paper_knobs():
    graph = _graph(_trace("su_o_c"))
    labels = [item.label for item in default_interventions(graph)]
    assert any(label.startswith("scale(") for label in labels)
    assert any(label.startswith("add_csds(") for label in labels)
    assert any(label.startswith("compression_ratio(")
               for label in labels)


def test_add_csds_scales_only_device_channels():
    graph = _graph(_trace("su"))
    durations = add_csds(4).durations(graph)
    devices = graph.device_count()
    factor = devices / (devices + 4)
    for node in graph.nodes:
        if node.resource.startswith(("ssd", "csd")):
            expected = node.latency + max(
                0.0, node.duration - node.latency) * factor
            assert durations[node.index] == pytest.approx(expected)
        else:
            assert durations[node.index] == node.duration


def test_compression_ratio_scales_gradient_offload_only():
    graph = _graph(_trace("su_o_c"))
    durations = compression_ratio(0.01, baseline=0.02).durations(graph)
    touched = untouched = 0
    for node in graph.nodes:
        if node.tag == "grad-offload" and node.duration > node.latency:
            assert durations[node.index] < node.duration
            touched += 1
        elif node.tag != "grad-offload":
            assert durations[node.index] == node.duration
            untouched += 1
    assert touched and untouched


def test_intervention_guardrails():
    graph = _graph(_trace("su"))
    with pytest.raises(TelemetryError, match="positive"):
        scale("host-link-down", -1.0).durations(graph)
    with pytest.raises(TelemetryError, match="baseline"):
        compression_ratio(0.01, baseline=0.0).durations(graph)


# ----------------------------------------------------------------------
# wall-span and interval construction
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def test_from_spans_builds_chainable_graph():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    with tracer.span("forward_backward"):
        clock.advance(1.0)
    with tracer.span("grad_offload"):
        with tracer.span("write", resource="ssd0-write", nbytes=64.0):
            clock.advance(0.5)
        with tracer.span("write", resource="ssd1-write", nbytes=64.0):
            clock.advance(0.5)
    with tracer.span("update"):
        with tracer.span("poll", resource="csd0-updater"):
            clock.advance(1.0)

    graph = DepGraph(Timeline.from_spans(tracer.spans))
    assert len(graph.nodes) == 3
    assert graph.step_seconds == pytest.approx(3.0)
    report = graph.critical_path()
    # The three resource spans are strictly sequential here, so the
    # path chains through all of them.
    assert len(report.path) == 3
    assert report.path[-1].resource == "csd0-updater"
    assert report.path_seconds == pytest.approx(2.0)
    # Identity replay holds for wall graphs too.
    assert graph.projected_step_seconds() == graph.step_seconds


def test_from_intervals_round_trip_invariants():
    graph = _from_intervals(
        {"a": [(0.0, 1.0), (2.0, 3.0)], "b": [(1.0, 2.0)]},
        phase_windows=[("update", 0.0, 3.5)])
    assert graph.step_seconds == pytest.approx(3.5)
    report = graph.critical_path()
    assert len(report.path) == 3
    assert report.path_seconds == pytest.approx(3.0)
    assert all(s >= 0.0 for s in report.slack)
    # Halving "b" pulls a's second interval earlier.
    projection = project(graph, scale("b", 0.5))
    assert projection.projected_step_seconds == pytest.approx(3.0)


def test_empty_graph_degrades_gracefully():
    graph = DepGraph(Timeline.from_spans([]))
    assert not graph.nodes
    report = graph.critical_path()
    assert "no dependency data" in report.render()
    assert graph.projected_step_seconds() == graph.step_seconds


@settings(max_examples=30, deadline=None)
@given(durations=st.lists(
    st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=8),
    gap=st.floats(min_value=0.0, max_value=1.0))
def test_synthetic_fifo_chain_invariants(durations, gap):
    """Property: on any single-resource FIFO chain, the path is the
    whole chain, busy time is the sum of durations, and slack is zero
    everywhere."""
    intervals = []
    cursor = gap
    for duration in durations:
        intervals.append((cursor, cursor + duration))
        cursor += duration
    graph = _from_intervals(
        {"link": intervals}, phase_windows=[("p", 0.0, cursor)])
    report = graph.critical_path()
    assert len(report.path) == len(durations)
    assert report.path_seconds == pytest.approx(sum(durations))
    assert all(s == pytest.approx(0.0, abs=1e-9) for s in report.slack)
    assert report.path_seconds <= report.step_seconds * (1 + 1e-9)


# ----------------------------------------------------------------------
# the JSONL export
# ----------------------------------------------------------------------

def test_critpath_jsonl_schema(tmp_path):
    graph = _graph(_trace("su_o_c"))
    report = graph.critical_path()
    ranked = rank_interventions(graph, default_interventions(graph))
    validation = validate_scale(_base("su_o_c"), "host-link-down", 1.0)
    path = str(tmp_path / "critpath.jsonl")
    write_critpath_jsonl(path, report, projections=ranked,
                         validations=[validation],
                         meta={"source": "test"})
    with open(path) as handle:
        lines = [json.loads(line) for line in handle]

    meta = lines[0]
    assert meta["type"] == "meta"
    assert meta["schema"] == CRITPATH_SCHEMA
    assert meta["source"] == "test"
    assert meta["path_hops"] == len(report.path)

    steps = [line for line in lines if line["type"] == "path_step"]
    assert len(steps) == len(report.path)
    assert sum(s["duration"] for s in steps) == pytest.approx(
        report.path_seconds)

    shares = [line for line in lines if line["type"] == "path_resource"]
    assert sum(s["seconds"] for s in shares) == pytest.approx(
        report.path_seconds)

    projections = [line for line in lines if line["type"] == "projection"]
    assert len(projections) == len(ranked)
    validations = [line for line in lines if line["type"] == "validation"]
    assert validations[0]["error"] == pytest.approx(0.0, abs=1e-12)
