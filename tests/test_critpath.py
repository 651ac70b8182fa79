"""Critical-path observatory: DAG invariants, and the DES the what-ifs
re-run.

The claims, checked here:

* **conservation** — the critical path's busy time never exceeds the
  step wall time, every node's slack is non-negative, and the path's
  per-resource busy seconds reconcile with (never exceed) the
  attribution layer's busy buckets;
* **monotonicity** — the DES ``repro whatif`` re-runs never answers a
  counterfactual backwards: a slower channel never speeds the step, a
  faster one never slows it, more CSDs never slow it and a larger Top-K
  ratio never speeds it;
* each counterfactual re-run changes what it names and nothing else
  (device bytes for more CSDs, gradient bytes for another ratio), and
  ``whatif`` ranks them by reduction;
* the ``smart-infinity/critpath/v1`` JSONL export behaves as documented.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.hw.topology import default_system
from repro.nn.models import get_model
from repro.perf.analysis import observe, resolve
from repro.perf.scenarios import trace_scenario
from repro.perf.workload import make_workload
from repro.sim.resources import TransferRecord
from repro.telemetry import SpanTracer, Timeline, attribute_channels
from repro.telemetry.critpath import (CRITPATH_SCHEMA, DepGraph,
                                      write_critpath_jsonl)


def _trace(method, model="gpt2-1.16b", csds=4):
    workload = make_workload(get_model(model))
    system = default_system(num_csds=csds)
    return trace_scenario(system, workload, method)


def _observe(method, csds=4, **changes):
    return observe(*resolve("gpt2-1.16b", csds), method, **changes)


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
    terminal = max(range(len(graph.nodes)),
                   key=lambda i: (graph.nodes[i].end, -i))
    assert last.end == graph.nodes[terminal].end
    assert report.slack[terminal] == pytest.approx(0.0, abs=1e-9)


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
# the DES whatif re-runs: every knob moves the step the right way
# ----------------------------------------------------------------------

def _step(system, workload, method, **changes):
    return trace_scenario(system, workload, method,
                          **changes).breakdown.total


def test_des_step_is_monotone_in_every_whatif_knob():
    workload = make_workload(get_model("gpt2-1.16b"))
    for method in ("baseline", "su", "su_o", "su_o_c"):
        steps = []
        for csds in (2, 4):
            system = default_system(num_csds=csds)
            trace = trace_scenario(system, workload, method)
            step = trace.breakdown.total
            steps.append(step)
            for channel in trace.fabric.all_channels():
                where = (method, csds, channel.name)
                assert _step(system, workload, method, channel_scales={
                    channel.name: 0.5}) >= step, where
                assert _step(system, workload, method, channel_scales={
                    channel.name: 2.0}) <= step, where
            by_ratio = [_step(system, workload, method,
                              compression_ratio=ratio)
                        for ratio in (0.01, 0.02, 0.05)]
            assert by_ratio == sorted(by_ratio), (method, csds)
        assert steps[1] <= steps[0], method


def test_add_csds_scales_only_device_channels():
    """Doubling the fleet halves each device's bytes and leaves the
    shared host link's volume where it was."""
    base, doubled = _observe("su", csds=2), _observe("su", csds=4)
    for summary in base.summaries:
        moved = doubled.channel(summary.name).bytes_total
        if summary.name.startswith(("ssd", "csd")):
            assert moved == pytest.approx(summary.bytes_total / 2)
        else:
            assert moved == pytest.approx(summary.bytes_total)


def test_compression_ratio_scales_gradient_offload_only():
    """Halving the Top-K ratio halves the gradient's own traffic (the
    offload, its bounce copy, part of the P2P load) and nothing else."""
    base = _observe("su_o_c")
    halved = _observe("su_o_c", compression_ratio=0.01)
    changed = {tag for tag, nbytes in base.tag_bytes.items()
               if halved.tag_bytes[tag] != nbytes}
    assert changed == {"grad-offload", "bounce", "p2p-load"}
    assert halved.tag_bytes["grad-offload"] == pytest.approx(
        base.tag_bytes["grad-offload"] / 2)
    assert halved.breakdown.total < base.breakdown.total


def _whatif_rows(tmp_path, *flags):
    path = str(tmp_path / "critpath.jsonl")
    assert main(["whatif", "--model", "gpt2-1.16b", "--csds", "4",
                 *flags, "--jsonl", path]) == 0
    with open(path) as handle:
        return [line for line in map(json.loads, handle)
                if line["type"] == "projection"]


def test_rank_interventions_sorted_by_reduction(tmp_path, capsys):
    rows = _whatif_rows(tmp_path, "--method", "su_o_c")
    assert rows
    reductions = [row["reduction_seconds"] for row in rows]
    assert reductions == sorted(reductions, reverse=True)
    out = capsys.readouterr().out
    for row in rows:
        assert row["label"] in out


def test_default_interventions_cover_the_paper_knobs(tmp_path):
    labels = [row["label"]
              for row in _whatif_rows(tmp_path, "--method", "su_o_c")]
    for knob in ("scale(", "add_csds(", "compression_ratio(",
                 "interleave()"):
        assert sum(label.startswith(knob) for label in labels) == (
            3 if knob == "scale(" else 1), (knob, labels)


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


def test_from_intervals_round_trip_invariants():
    graph = _from_intervals(
        {"a": [(0.0, 1.0), (2.0, 3.0)], "b": [(1.0, 2.0)]},
        phase_windows=[("update", 0.0, 3.5)])
    assert graph.step_seconds == pytest.approx(3.5)
    report = graph.critical_path()
    assert len(report.path) == 3
    assert report.path_seconds == pytest.approx(3.0)
    assert all(s >= 0.0 for s in report.slack)


def test_empty_graph_degrades_gracefully():
    graph = DepGraph(Timeline.from_spans([]))
    assert not graph.nodes
    report = graph.critical_path()
    assert "no dependency data" in report.render()


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
    row = {"label": "add_csds(+4)", "baseline_step_seconds": 2.0,
           "projected_step_seconds": 1.6, "reduction_seconds": 0.4,
           "speedup": 1.25}
    path = str(tmp_path / "critpath.jsonl")
    write_critpath_jsonl(path, report, projections=[row],
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

    assert [line for line in lines if line["type"] == "projection"] == [
        {"type": "projection", **row}]
