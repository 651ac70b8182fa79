"""The DES observers and event kernel against what they replaced.

``telemetry.attrib.attribute`` became one sweep per phase window,
``telemetry.critpath.DepGraph`` stores barrier groups instead of one
causal edge per group member, and the ``sim`` kernel lost its
per-event call chain.  Every output must be bit-identical to the old
code, which survives only here, verbatim, as the reference:

* :func:`reference_attribute` — the per-slice scan (every interval of
  every resource re-scanned for every elementary slice);
* :class:`ReferenceGraph` — the per-edge list builder with its
  ``preds``/``succs`` copies, replay and CPM.

Checked on random inputs (hypothesis), on all 48 scenarios of the
``des_sweep`` benchmark grid, and by two complexity guards that count
calls instead of racing the host's clock.
"""

import bisect
import cProfile
import hashlib
import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.topology import default_system
from repro.nn.models import get_model
from repro.perf.analysis import observe, validate_scale
from repro.perf.scenarios import METHODS, SCHEDULES, trace_scenario
from repro.perf.workload import make_workload
from repro.sim.resources import TransferRecord
from repro.telemetry.attrib import (COMPUTE, Attribution, ResourceUsage,
                                    Timeline, attribute,
                                    attribute_channels)
from repro.telemetry.critpath import CritPathReport, DepGraph, PathStep


def graph_from_intervals(busy, phase_windows):
    """The graph of bare per-resource busy intervals (FIFO order)."""
    return DepGraph(Timeline(
        phases=list(phase_windows),
        ops={name: [TransferRecord(name, "", 0.0, start, end)
                   for start, end in intervals]
             for name, intervals in busy.items()}))


# ----------------------------------------------------------------------
# reference 1: the per-slice attribution scan, verbatim
# ----------------------------------------------------------------------
def reference_merge_intervals(intervals):
    spans = sorted((s, e) for s, e in intervals if e > s)
    merged = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _reference_clip(intervals, start, end):
    clipped = []
    for a, b in intervals:
        lo, hi = max(a, start), min(b, end)
        if hi > lo:
            clipped.append((lo, hi))
    return clipped


def reference_attribute(phase_windows, busy_windows,
                        bytes_by_resource=None, capacities=None,
                        horizon=None):
    windows = [(str(p), float(s), float(e))
               for p, s, e in phase_windows if e > s]
    ordered = sorted(windows, key=lambda w: w[1])
    merged = {str(name): reference_merge_intervals(intervals)
              for name, intervals in busy_windows.items()}

    step_seconds = sum(end - start for _, start, end in windows)
    if horizon is None:
        horizon = step_seconds
    buckets = {}
    phases = []

    for phase, start, end in ordered:
        if phase not in phases:
            phases.append(phase)
        clipped = {name: _reference_clip(intervals, start, end)
                   for name, intervals in merged.items()}
        clipped = {name: ivs for name, ivs in clipped.items() if ivs}
        weight = {name: sum(e - s for s, e in ivs)
                  for name, ivs in clipped.items()}
        cuts = {start, end}
        for ivs in clipped.values():
            for s, e in ivs:
                cuts.add(s)
                cuts.add(e)
        edges = sorted(cuts)
        for lo, hi in zip(edges, edges[1:]):
            if hi <= lo:
                continue
            mid = (lo + hi) / 2.0
            active = [name for name, ivs in clipped.items()
                      if any(s <= mid < e for s, e in ivs)]
            if active:
                owner = max(sorted(active), key=lambda n: weight[n])
            else:
                owner = COMPUTE
            key = (phase, owner)
            buckets[key] = buckets.get(key, 0.0) + (hi - lo)
        # The old re-tiling summed by phase *label*; with unique labels
        # (every comparison below) that is the window's own sum.
        phase_sum = sum(seconds for (p, _), seconds in buckets.items()
                        if p == phase)
        drift = (end - start) - phase_sum
        if buckets and abs(drift) > 0.0:
            largest = max((key for key in buckets if key[0] == phase),
                          key=lambda key: buckets[key])
            buckets[largest] += drift

    usage = {}
    for name, intervals in merged.items():
        busy = sum(e - s for s, e in intervals)
        usage[name] = ResourceUsage(
            name=name,
            busy_seconds=busy,
            utilization=min(1.0, busy / horizon) if horizon > 0 else 0.0,
            bytes_total=float((bytes_by_resource or {}).get(name, 0.0)),
            capacity=(capacities or {}).get(name))
    return Attribution(step_seconds=step_seconds, buckets=buckets,
                       usage=usage, phases=phases)


def reference_attribute_channels(phase_windows, channels, horizon=None):
    busy, nbytes, caps = {}, {}, {}
    for channel in channels:
        if not channel.records:
            continue
        busy[channel.name] = [(r.start, r.end) for r in channel.records]
        nbytes[channel.name] = channel.bytes_total
        caps[channel.name] = channel.bandwidth
    return reference_attribute(phase_windows, busy,
                               bytes_by_resource=nbytes, capacities=caps,
                               horizon=horizon)


def assert_same_attribution(new, old):
    # Dataclass equality compares the dicts as mappings; the key order
    # (what every renderer iterates in) is compared on its own.
    assert new == old
    assert list(new.buckets.items()) == list(old.buckets.items())
    assert list(new.usage) == list(old.usage)


# ----------------------------------------------------------------------
# reference 2: the per-edge dependency graph, verbatim
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReferenceEdge:
    src: int
    dst: int
    lag: float
    kind: str


class ReferenceGraph:
    """The old ``DepGraph``: one ``ReferenceEdge`` per causal pair,
    copied into ``preds``/``succs``.  Built over the new graph's nodes —
    the node order is not what changed."""

    def __init__(self, graph):
        nodes = self.nodes = list(graph.nodes)
        origin = self.origin = graph.origin
        self.step_seconds = graph.step_seconds
        edges = []
        last_on = {}
        ends_sorted = []
        for node in nodes:
            preds = set()
            serial = last_on.get(node.resource)
            if serial is not None:
                edges.append(ReferenceEdge(src=serial, dst=node.index,
                                           lag=0.0, kind="serial"))
                preds.add(serial)
            cut = bisect.bisect_right(ends_sorted, (node.start, len(nodes)))
            if cut > 0:
                best_end = ends_sorted[cut - 1][0]
                lo = bisect.bisect_left(ends_sorted, (best_end, -1))
                for end, src in ends_sorted[lo:cut]:
                    lag = max(0.0, node.start - end)
                    if src == serial and lag == 0.0:
                        continue
                    edges.append(ReferenceEdge(src=src, dst=node.index,
                                               lag=lag, kind="causal"))
                    preds.add(src)
            if not preds:
                edges.append(ReferenceEdge(
                    src=-1, dst=node.index,
                    lag=max(0.0, node.start - origin), kind="source"))
            last_on[node.resource] = node.index
            bisect.insort(ends_sorted, (node.end, node.index))
        self.edges = edges
        self.preds = [[] for _ in nodes]
        self.succs = [[] for _ in nodes]
        for edge in edges:
            self.preds[edge.dst].append(edge)
            if edge.src >= 0:
                self.succs[edge.src].append(edge)
        self.measured_starts = [node.start for node in nodes]
        self.measured_ends = [node.end for node in nodes]
        self.makespan = (max(self.measured_ends) - origin
                         if nodes else 0.0)

    def durations(self):
        return [node.duration for node in self.nodes]

    def replay(self, durations=None):
        if durations is None:
            durations = self.durations()
        durations = list(durations)
        if durations == self.durations():
            return (list(self.measured_starts), list(self.measured_ends),
                    self.makespan)
        starts = [0.0] * len(self.nodes)
        ends = [0.0] * len(self.nodes)
        for node in self.nodes:
            ready = self.origin
            for edge in self.preds[node.index]:
                base = self.origin if edge.src < 0 else ends[edge.src]
                ready = max(ready, base + edge.lag)
            starts[node.index] = ready
            ends[node.index] = ready + durations[node.index]
        makespan = (max(ends) - self.origin) if ends else 0.0
        return starts, ends, makespan

    def projected_step_seconds(self, durations=None):
        _starts, _ends, makespan = self.replay(durations)
        return self.step_seconds + (makespan - self.makespan)

    def critical_path(self):
        n = len(self.nodes)
        starts, ends = self.measured_starts, self.measured_ends
        horizon = self.origin + self.makespan
        tol = 1e-9 * max(1.0, abs(horizon))
        latest_end = [horizon] * n
        for node in reversed(self.nodes):
            for edge in self.succs[node.index]:
                latest_start_succ = (latest_end[edge.dst]
                                     - self.nodes[edge.dst].duration)
                latest_end[node.index] = min(
                    latest_end[node.index], latest_start_succ - edge.lag)
        slack = [max(0.0, (latest_end[i] - self.nodes[i].duration)
                     - starts[i])
                 for i in range(n)]

        path_nodes = []
        if self.nodes:
            current = max(range(n), key=lambda i: (ends[i], -i))
            while True:
                node = self.nodes[current]
                path_nodes.append(node)
                determining = None
                for edge in self.preds[current]:
                    if edge.src < 0:
                        continue
                    if abs(ends[edge.src] + edge.lag
                           - starts[current]) <= tol:
                        if (determining is None
                                or ends[edge.src] > ends[determining]
                                or (ends[edge.src] == ends[determining]
                                    and edge.src > determining)):
                            determining = edge.src
                if determining is None:
                    break
                current = determining
            path_nodes.reverse()

        path = []
        previous_end = self.origin
        for node in path_nodes:
            path.append(PathStep(
                resource=node.resource, tag=node.tag, nbytes=node.nbytes,
                start=node.start, end=node.end, duration=node.duration,
                wait=max(0.0, node.start - previous_end)))
            previous_end = node.end
        return CritPathReport(step_seconds=self.step_seconds,
                              makespan=self.makespan, path=path,
                              slack=slack, num_nodes=n,
                              num_edges=len(self.edges))


def assert_same_graph(graph, factors):
    """``critical_path``, ``replay`` and ``projected_step_seconds`` of
    ``graph`` equal the per-edge reference's, bit for bit."""
    reference = ReferenceGraph(graph)
    assert graph.critical_path() == reference.critical_path()
    assert graph.replay() == reference.replay()
    durations = [duration * factors[index % len(factors)]
                 for index, duration in enumerate(graph.durations())]
    assert graph.replay(durations) == reference.replay(durations)
    assert (graph.projected_step_seconds(durations)
            == reference.projected_step_seconds(durations))


# ----------------------------------------------------------------------
# (a) attribute == the per-slice scan, on random windows x resources
# ----------------------------------------------------------------------
def _ulps(value, steps):
    for _ in range(steps):
        value = math.nextafter(value, math.inf)
    return value


@st.composite
def attribution_inputs(draw):
    """Sequential phase windows (some empty of traffic) and per-resource
    spans on a coarse grid — so spans abut, share endpoints across
    resources and overlap on one resource — with some endpoints nudged
    one or two ulps, which makes slices too narrow to hold a midpoint."""
    grid = st.integers(min_value=0, max_value=24)
    nudge = st.integers(min_value=0, max_value=2)

    def instant():
        return _ulps(draw(grid) * 0.125, draw(nudge))

    bounds = sorted({instant()
                     for _ in range(draw(st.integers(2, 5)))})
    windows = [(f"phase{index}", lo, hi)
               for index, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    busy = {}
    for index in range(draw(st.integers(0, 5))):
        spans = []
        for _ in range(draw(st.integers(0, 6))):
            start = instant()
            spans.append((start, start + draw(grid) * 0.0625))
        busy[f"res{index}"] = spans
    return windows, busy


@settings(max_examples=300, deadline=None)
@given(attribution_inputs())
def test_attribute_matches_the_per_slice_scan(inputs):
    windows, busy = inputs
    assert_same_attribution(attribute(windows, busy),
                            reference_attribute(windows, busy))


def test_ulp_wide_slice_is_owned_by_whoever_is_busy_at_its_right_end():
    # (lo + hi) / 2 of two adjacent floats rounds onto one of them; here
    # onto hi, so the scan sampled the slice *at* hi: "b", which starts
    # there, owns it and "a", which ends there, does not — although "a"
    # would outrank "c" on [lo, hi) if asked.
    lo = math.nextafter(1.0, math.inf)
    hi = math.nextafter(lo, math.inf)
    assert (lo + hi) / 2.0 == hi
    windows = [("p", 0.0, 4.0)]
    busy = {"a": [(0.0, hi)], "b": [(hi, 4.0)], "c": [(lo, 1.5)]}
    attribution = attribute(windows, busy)
    assert_same_attribution(attribution,
                            reference_attribute(windows, busy))
    assert attribution.buckets[("p", "a")] == lo
    # One ulp earlier the midpoint rounds onto lo and "a" keeps it.
    hi, lo = lo, 1.0
    assert (lo + hi) / 2.0 == lo
    busy = {"a": [(0.0, hi)], "b": [(hi, 4.0)], "c": [(lo, 1.5)]}
    assert attribute(windows, busy).buckets[("p", "a")] == hi


# ----------------------------------------------------------------------
# satellite fix: drift is re-tiled per window, not per phase label
# ----------------------------------------------------------------------
def test_repeated_phase_labels_tile_each_window_on_its_own():
    attribution = attribute(
        [("fb", 0, 1), ("up", 1, 2), ("fb", 2, 3), ("up", 3, 4)],
        {"r": [(0, .5), (2, 2.5)], "q": [(1.2, 1.9), (3.2, 3.9)]})
    assert attribution.buckets[("fb", "r")] == 1.0
    assert attribution.buckets[("fb", COMPUTE)] == 1.0
    assert attribution.buckets[("up", "q")] == pytest.approx(1.4)
    assert attribution.buckets[("up", COMPUTE)] == pytest.approx(0.6)
    assert attribution.step_seconds == 4.0
    assert attribution.conservation_error() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(attribution_inputs(), st.integers(min_value=2, max_value=4))
def test_conservation_over_repeated_steps(inputs, steps):
    """A multi-step trace repeats every phase label once per step; the
    buckets still tile the whole trace and each label's total is the sum
    of its windows."""
    windows, busy = inputs
    period = 4.0                      # the windows end by 3.0
    labelled = [(f"phase{index % 2}", lo, hi)
                for index, (_, lo, hi) in enumerate(windows)]
    many_windows = [(name, lo + period * step, hi + period * step)
                    for step in range(steps) for name, lo, hi in labelled]
    many_busy = {name: [(s + period * step, e + period * step)
                        for step in range(steps) for s, e in spans]
                 for name, spans in busy.items()}
    attribution = attribute(many_windows, many_busy)
    assert attribution.conservation_error() <= 1e-9
    expected = {}
    for name, lo, hi in many_windows:
        expected[name] = expected.get(name, 0.0) + (hi - lo)
    totals = attribution.phase_totals()
    assert totals.keys() == expected.keys()
    for name, seconds in expected.items():
        assert totals[name] == pytest.approx(seconds, abs=1e-9)
    assert all(seconds >= -1e-12
               for seconds in attribution.buckets.values())


# ----------------------------------------------------------------------
# (b) barrier-group graph == the per-edge graph, on random schedules
# ----------------------------------------------------------------------
FACTORS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.75, 3.0]),
                   min_size=1, max_size=7)

#: Durations and gaps whose float sums reach "the same" instant exactly
#: on some resources and one rounding apart on others: exact ties (one
#: barrier group) next to near-ties inside the path walk's tolerance.
STEP = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.25, 0.5])


@st.composite
def fifo_schedules(draw):
    """Per-resource FIFO interval lists.  Zero gaps put a node's serial
    predecessor inside its trigger group at lag 0, positive gaps at a
    positive lag; zero durations put a node into the group it waits on;
    ``lockstep`` copies one timeline onto k resources (k-way fan-in)."""
    busy = {}
    for index in range(draw(st.integers(1, 4))):
        cursor = draw(STEP)
        intervals = []
        for _ in range(draw(st.integers(0, 6))):
            cursor += draw(STEP)
            end = cursor + draw(STEP)
            intervals.append((cursor, end))
            cursor = end
        busy[f"res{index}"] = intervals
    lockstep = draw(st.integers(0, 4))
    for copy in range(lockstep):
        busy[f"dev{copy}"] = list(busy["res0"])
    return busy


@settings(max_examples=300, deadline=None)
@given(fifo_schedules(), FACTORS)
def test_graph_from_intervals_matches_the_per_edge_graph(busy, factors):
    horizon = max((end for spans in busy.values() for _, end in spans),
                  default=0.0)
    graph = graph_from_intervals(busy, [("step", 0.0, horizon + 0.5)])
    assert_same_graph(graph, factors)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), STEP, STEP, STEP),
                max_size=16), FACTORS)
def test_graph_from_spans_matches_the_per_edge_graph(draws, factors):
    """Wall-clock spans: same-resource spans may overlap (worker
    threads), so the serial predecessor can finish *after* its
    successor starts."""
    spans = [SimpleNamespace(name="update", start=0.25, end=4.0, attrs={})]
    cursor = 0.0
    for resource, advance, duration, nbytes in draws:
        cursor += advance
        spans.append(SimpleNamespace(
            name="io", start=cursor, end=cursor + duration,
            attrs={"resource": f"res{resource}", "nbytes": nbytes}))
    assert_same_graph(DepGraph(Timeline.from_spans(spans)), factors)


def test_lockstep_fan_in_counts_every_edge_it_does_not_store():
    # Three devices in lock step, two rounds: each second-round node
    # waits on all three first-round finishes (one is its own serial
    # predecessor at lag 0 and is not counted twice).
    busy = {f"dev{k}": [(0.0, 1.0), (1.0, 2.0)] for k in range(3)}
    graph = graph_from_intervals(busy, [("step", 0.0, 2.0)])
    report = graph.critical_path()
    assert report.num_edges == 3 + 3 * 3 == len(ReferenceGraph(graph).edges)
    # The walk starts at the lowest-index terminal node and, among the
    # tied triggers, steps to the highest index.
    assert [step.resource for step in report.path] == ["dev2", "dev0"]
    assert_same_graph(graph, [0.5, 1.0, 2.0])


# ----------------------------------------------------------------------
# (c) the 48-scenario des_sweep grid
# ----------------------------------------------------------------------
#: sha256 over every TransferRecord (channel, tag, nbytes, start, end)
#: of all 48 scenarios, computed with the per-leg kernel (one event per
#: transfer leg plus an all_of barrier per composite transfer).
GRID_RECORDS_SHA256 = ("74fe4a3b42b7907ccdff753c413138ae"
                       "e86e854f47cd90c2d8a6ba18c5066c02")
GRID_RECORDS = 19176
#: Upper bound on the events the grid dispatches: one completion per
#: composite transfer.  The per-leg kernel dispatched 29 652.
GRID_EVENTS = 20088


def _grid():
    for model in ("gpt2-1.16b", "gpt2-4.0b"):
        workload = make_workload(get_model(model))
        for csds in (1, 4, 10):
            system = default_system(num_csds=csds)
            for method in METHODS:
                for schedule in SCHEDULES:
                    yield trace_scenario(system, workload, method,
                                         schedule=schedule)


def test_grid_records_attribution_and_critical_path_are_unchanged():
    digest = hashlib.sha256()
    events = records = scenarios = 0
    for trace in _grid():
        scenarios += 1
        channels = trace.fabric.all_channels()
        events += trace.fabric.sim.events_processed
        for channel in channels:
            records += len(channel.records)
            for record in channel.records:
                assert record.channel == channel.name
                assert record.duration == record.end - record.start
                digest.update(f"{record.channel}|{record.tag}|".encode())
                digest.update(struct.pack("<ddd", record.nbytes,
                                          record.start, record.end))
        assert_same_attribution(
            attribute_channels(trace.phase_windows, channels,
                               horizon=trace.breakdown.total),
            reference_attribute_channels(trace.phase_windows, channels,
                                         horizon=trace.breakdown.total))
        assert_same_graph(
            DepGraph.from_channels(channels, trace.phase_windows),
            [0.5, 1.7, 1.0])
    assert (scenarios, records) == (48, GRID_RECORDS)
    assert events <= GRID_EVENTS
    assert digest.hexdigest() == GRID_RECORDS_SHA256


def test_projection_sweep_worst_error_is_the_documented_one():
    """OBSERVABILITY.md quotes 3.05 % as the worst what-if projection
    error over su / su_o / su_o_c x 4 channels x 4 factors; one base per
    method, 48 counterfactual re-simulations."""
    worst = 0.0
    for method in ("su", "su_o", "su_o_c"):
        base = observe(default_system(num_csds=4),
                       make_workload(get_model("gpt2-1.16b")), method)
        for channel in ("host-link-down", "ssd0-write", "ssd0-read",
                        "csd0-updater"):
            for factor in (0.5, 0.75, 1.5, 2.0):
                worst = max(worst, validate_scale(
                    base, channel, factor).error)
    assert round(worst, 4) == 0.0305


# ----------------------------------------------------------------------
# (e) complexity guards: count calls, do not race the host
# ----------------------------------------------------------------------
def _calls(function, *args):
    profile = cProfile.Profile()
    result = profile.runcall(function, *args)
    return sum(entry.callcount for entry in profile.getstats()), result


def test_attribute_work_is_linear_in_the_intervals():
    resources, per_resource = 40, 2000
    busy = {f"res{r:02d}": [(i + 0.5 * r / resources,
                             i + 0.5 * r / resources + 0.6)
                            for i in range(per_resource)]
            for r in range(resources)}
    windows = [("forward", 0.0, per_resource / 2),
               ("update", per_resource / 2, per_resource + 2.0)]
    calls, attribution = _calls(attribute, windows, busy)
    assert attribution.conservation_error() <= 1e-9
    # ~19 calls per interval.  The per-slice scan made ~1 600 per
    # interval on 1/40 of this input and grows with the square.
    assert calls <= 40 * resources * per_resource


def test_graph_work_does_not_grow_with_the_fan_in():
    def critical_path(ways, nodes=4000):
        rounds = nodes // ways
        busy = {f"dev{k:02d}": [(float(i), float(i + 1))
                                for i in range(rounds)]
                for k in range(ways)}
        graph = graph_from_intervals(
            busy, [("step", 0.0, float(rounds))])
        return graph.critical_path()

    calls, report = _calls(critical_path, 20)
    assert report.num_nodes == 4000
    assert report.num_edges == 20 + 20 * 20 * 199
    # ~16 calls per node; the per-edge builder made ~170 per node here
    # (8 per edge and 20 edges per node).
    assert calls <= 30 * report.num_nodes
    wider, report = _calls(critical_path, 40)
    assert report.num_edges == 40 + 40 * 40 * 99
    assert wider <= 1.05 * calls
