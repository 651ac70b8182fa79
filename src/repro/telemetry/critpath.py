"""Critical-path observatory: dependency DAGs, slack, what-if replay.

The attribution layer (:mod:`repro.telemetry.attrib`) names the busiest
resource; this module proves which transfers actually *gate* the step
and predicts what an intervention buys.  It reconstructs a per-step
dependency DAG from a :class:`~repro.telemetry.attrib.Timeline` —
whichever evidence source that was built from: DES channel records,
resource-tagged wall-clock spans (child spans forwarded by the process
backend included) or a re-imported Chrome trace — then:

* extracts the **critical path** with per-node slack (classic CPM:
  earliest times are the measured schedule, latest times anchor at the
  measured makespan; slack = latest - earliest start, >= 0);
* answers **counterfactual queries** by replaying the DAG with scaled
  node durations: :func:`scale` (a channel gets faster/slower),
  :func:`add_csds` (the device-internal work spreads over more
  devices), :func:`compression_ratio` (the gradient offload shrinks),
  ranked by projected step-time reduction.

Edge inference, in the order the replay semantics force it:

* **serialization edges** — consecutive records on one channel (FIFO by
  construction) with lag 0: a transfer can never start before its
  channel predecessor finishes, but the *request* timing is carried by
  the causal edge, so a faster channel drains its queue earlier instead
  of being pinned to the measured gaps;
* **causal edges** — each node depends on the latest-finishing earlier
  node(s) whose end does not exceed its start.  When the lag is zero
  this is exactly the DES event that resumed the waiting process; a
  positive lag preserves whatever untracked work (compute timeouts,
  driver overheads) separated them;
* **source edges** — nodes with no predecessor anchor to the step
  origin with their measured lead-in as the lag.

Because every edge stores its measured lag, replaying the DAG with
*unchanged* durations reproduces the measured schedule — so a factor-1.0
intervention projects exactly the measured step time, and projection
error under a real intervention comes only from edge inference
(:func:`repro.perf.analysis.validate_scale` re-runs the DES with the
intervention actually applied and reports that error).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from operator import itemgetter, sub
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..errors import TelemetryError
from ..sim.resources import TransferRecord
from .attrib import Timeline

#: Schema marker of the critical-path JSONL export.
CRITPATH_SCHEMA = "smart-infinity/critpath/v1"

#: Device-internal resources (per-CSD channels) — the set an
#: :func:`add_csds` intervention spreads across more devices.
_DEVICE_RESOURCE = re.compile(r"^(ssd|csd)(\d+)-")

#: Transfer tags that carry the (possibly compressed) gradient volume.
_GRADIENT_TAGS = ("grad-offload",)

#: Fields of a :class:`~repro.sim.resources.TransferRecord` operation.
_RESOURCE, _START, _END = itemgetter(0), itemgetter(3), itemgetter(4)


class DagNode(NamedTuple):
    """One tracked operation: a channel transfer or a resource span."""

    index: int
    resource: str
    tag: str
    nbytes: float
    start: float
    end: float
    #: Fixed command overhead of the operation (channel latency); the
    #: remainder (``duration - latency``) is the data-proportional part
    #: interventions scale.
    latency: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class PathStep(NamedTuple):
    """One hop of the critical path."""

    resource: str
    tag: str
    nbytes: float
    start: float
    end: float
    duration: float
    #: Wait between the previous path node's end (or the step origin)
    #: and this node's start — untracked time the path spent blocked.
    wait: float


@dataclass
class CritPathReport:
    """The extracted critical path plus its conservation accounting."""

    step_seconds: float
    makespan: float
    path: List[PathStep]
    #: Per-node slack (latest start - earliest start), graph order.
    slack: List[float]
    num_nodes: int
    num_edges: int

    @property
    def path_seconds(self) -> float:
        """Busy time on the path (excludes waits)."""
        return sum(step.duration for step in self.path)

    @property
    def wait_seconds(self) -> float:
        return sum(step.wait for step in self.path)

    def resource_seconds(self) -> Dict[str, float]:
        """Busy seconds on the path, per resource."""
        totals: Dict[str, float] = {}
        for step in self.path:
            totals[step.resource] = (totals.get(step.resource, 0.0)
                                     + step.duration)
        return totals

    def render(self, top: int = 6) -> str:
        """Terminal pane: path composition and coverage."""
        if not self.path:
            return ("critical path: no dependency data (no transfer "
                    "records or resource spans to chain)")
        coverage = (self.path_seconds / self.step_seconds
                    if self.step_seconds > 0 else 0.0)
        lines = [f"critical path — {len(self.path)} of {self.num_nodes} "
                 f"tracked ops, {self.path_seconds:.3f} s busy + "
                 f"{self.wait_seconds:.3f} s waits "
                 f"({coverage:.0%} of {self.step_seconds:.3f} s step)"]
        shares = sorted(self.resource_seconds().items(),
                        key=lambda kv: -kv[1])
        lines.append(f"  {'resource':<22} {'hops':>5} {'busy s':>9} "
                     f"{'of step':>8}")
        hops: Dict[str, int] = {}
        for step in self.path:
            hops[step.resource] = hops.get(step.resource, 0) + 1
        for name, seconds in shares[:top]:
            share = (seconds / self.step_seconds
                     if self.step_seconds > 0 else 0.0)
            lines.append(f"  {name:<22} {hops[name]:>5} {seconds:>9.3f} "
                         f"{share:>8.1%}")
        if len(shares) > top:
            lines.append(f"  ... {len(shares) - top} quieter path "
                         f"resource(s) omitted")
        return "\n".join(lines)


class _Nodes(Sequence):
    """:attr:`DepGraph.nodes`: the graph's operations as :class:`DagNode`
    tuples, built on first indexing or iteration.  Only the
    interventions walk every node; ``len`` / truthiness build nothing."""

    def __init__(self, ops: List[TransferRecord],
                 latency: Mapping[str, float]) -> None:
        self._ops, self._latency = ops, latency
        self._nodes: Optional[List[DagNode]] = None

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index):
        if self._nodes is None:
            self._nodes = [
                DagNode(i, res, tag, nbytes, start, end,
                        self._latency.get(res, 0.0))
                for i, (res, tag, nbytes, start, end) in enumerate(self._ops)]
        return self._nodes[index]


class DepGraph:
    """Per-step dependency DAG over measured operations.

    Nodes are topologically ordered (stable sort by start then end, so
    same-channel FIFO order survives ties); every edge points from a
    lower to a higher index.  ``replay`` recomputes the schedule under
    modified durations; unchanged durations short-circuit to the
    measured schedule, which is what makes factor-1.0 projections exact.

    Edges are not materialised.  Nodes that finish at the same instant
    form one *barrier group* (members in index order), and every causal
    edge into a node comes from a prefix of one group with one lag, so a
    node stores four numbers — its serial predecessor, its trigger
    group, the last member of the group that existed when it started,
    and the lag — however many lock-step devices finished together.
    """

    def __init__(self, timeline: Timeline) -> None:
        ops: List[TransferRecord] = []
        for resource_ops in timeline.ops.values():
            ops += resource_ops
        # Stable by (start, end), as two stable sorts on one float each
        # (no key tuple per operation): ties keep each resource's own
        # FIFO order, which makes the sorted order a topological order
        # of the measured schedule.
        ops.sort(key=_END)
        ops.sort(key=_START)
        self._ops = ops
        #: Measured start/end/duration columns, graph order.
        starts = self.measured_starts = list(map(_START, ops))
        ends = self.measured_ends = list(map(_END, ops))
        self._durations = list(map(sub, ends, starts))
        #: The measured operations as :class:`DagNode` tuples (lazy).
        self.nodes = _Nodes(ops, timeline.latency)
        #: What the projections are measured against.
        self.step_seconds = timeline.step_seconds
        #: The step's (phase, start, end) windows — schedule-level
        #: interventions (:func:`interleave`) need phase boundaries, not
        #: just node timings.
        self.phase_windows = list(timeline.phases)
        origin = timeline.origin
        if origin is None:
            origin = min([start for _p, start, _e in timeline.phases]
                         + starts[:1], default=0.0)
        self.origin = float(origin)
        self.makespan = max(ends) - self.origin if ends else 0.0
        self._infer_edges(list(map(_RESOURCE, ops)))

    @classmethod
    def from_channels(cls, channels: Iterable,
                      phase_windows: Sequence[Tuple[str, float, float]]
                      ) -> "DepGraph":
        """The graph of one DES iteration
        (:meth:`~repro.telemetry.attrib.Timeline.from_channels`)."""
        return cls(Timeline.from_channels(channels, phase_windows))

    def _infer_edges(self, resources: List[str]) -> None:
        n = len(resources)
        #: Same-resource predecessor (-1: none).  Pure FIFO, lag 0, not
        #: the measured gap — the measured request timing is the causal
        #: edges' job, and pinning it here would stop a faster channel
        #: from draining its queue earlier than it did.
        serials = self._serial = [-1] * n
        #: Barrier group of the latest finish not after the node's start
        #: (-1: none).  Every member that existed then — up to
        #: ``_last[i]`` — is a plausible trigger (legs of one all_of
        #: barrier) and carries the same ``_lag[i]``.
        triggers = self._trigger = [-1] * n
        lasts = self._last = [-1] * n
        #: Causal lag; for a node with no predecessor at all, its lead-in
        #: from the step origin (the source edge).
        lags = self._lag = [0.0] * n
        #: The barrier group each node's own finish belongs to.
        groups = self._group = [0] * n
        members: List[List[int]] = []
        group_at: Dict[float, int] = {}
        #: Distinct finish instants after the current node's start, a
        #: min-heap, and its head.  Starts never decrease in graph
        #: order, so an instant popped once is not after any later start
        #: either.
        pending: List[float] = []
        head = inf
        latest, latest_group = -inf, -1
        last_on: Dict[str, int] = {}
        serial_of, group_of = last_on.get, group_at.get
        origin = self.origin
        edges = 0
        for index, start, end, resource in zip(
                range(n), self.measured_starts, self.measured_ends,
                resources):
            serial = serials[index] = serial_of(resource, -1)
            last_on[resource] = index
            if head <= start:
                while pending and pending[0] <= start:
                    instant = heappop(pending)
                    if instant > latest:
                        latest, latest_group = instant, group_at[instant]
                head = pending[0] if pending else inf
            if latest_group >= 0:
                triggers[index] = latest_group
                lag = lags[index] = start - latest
                existed = members[latest_group]
                lasts[index] = existed[-1]
                edges += len(existed)
                if (serial >= 0 and lag == 0.0
                        and groups[serial] == latest_group):
                    # That causal edge is the serial FIFO edge again; a
                    # positive lag still counts on its own, it anchors
                    # the measured request timing.
                    edges -= 1
            elif serial < 0:
                lags[index] = max(0.0, start - origin)
                edges += 1
            group = group_of(end)
            if group is None:
                group = group_at[end] = len(members)
                members.append([])
                heappush(pending, end)
                if end < head:
                    head = end
            groups[index] = group
            members[group].append(index)
        self._num_groups = len(members)
        #: Serial + causal + source edges the per-edge list would hold;
        #: every node but each resource's first has a serial edge.
        self.num_edges = edges + n - len(last_on)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def durations(self) -> List[float]:
        """The measured node durations (the replay baseline)."""
        return list(self._durations)

    def replay(self, durations: Optional[Sequence[float]] = None
               ) -> Tuple[List[float], List[float], float]:
        """Schedule under ``durations``; returns (starts, ends, makespan).

        Starts/ends are absolute (same clock as the measured nodes).
        Unchanged durations return the measured schedule verbatim —
        identity is by construction, not by floating-point luck.
        """
        if durations is None:
            durations = self.durations()
        durations = list(durations)
        if len(durations) != len(self.nodes):
            raise TelemetryError(
                f"replay needs {len(self.nodes)} durations, got "
                f"{len(durations)}")
        if durations == self._durations:
            return (list(self.measured_starts), list(self.measured_ends),
                    self.makespan)
        starts = [0.0] * len(self.nodes)
        ends = [0.0] * len(self.nodes)
        # Latest replayed finish per barrier group.  Nodes replay in
        # index order, so when a node reads its trigger group the
        # running max covers exactly the prefix it waited on; adding the
        # lag after the max equals the max over per-member sums because
        # a rounded add is monotone.
        finished = [-inf] * self._num_groups
        for index, duration in enumerate(durations):
            ready = self.origin
            serial, trigger = self._serial[index], self._trigger[index]
            if serial >= 0:
                ready = max(ready, ends[serial])
            if trigger >= 0:
                ready = max(ready, finished[trigger] + self._lag[index])
            elif serial < 0:
                ready = max(ready, self.origin + self._lag[index])
            starts[index] = ready
            end = ends[index] = ready + duration
            group = self._group[index]
            if end > finished[group]:
                finished[group] = end
        makespan = (max(ends) - self.origin) if ends else 0.0
        return starts, ends, makespan

    def projected_step_seconds(self,
                               durations: Optional[Sequence[float]] = None
                               ) -> float:
        """Step time under ``durations``: the untracked remainder of the
        step (phase time not covered by the DAG makespan) is constant."""
        _starts, _ends, makespan = self.replay(durations)
        return self.step_seconds + (makespan - self.makespan)

    # ------------------------------------------------------------------
    # critical path + slack
    # ------------------------------------------------------------------
    def critical_path(self) -> CritPathReport:
        """CPM over the measured schedule."""
        n = len(self.nodes)
        starts, ends = self.measured_starts, self.measured_ends
        durations = self._durations
        horizon = self.origin + self.makespan
        tol = 1e-9 * max(1.0, abs(horizon))
        # One slot past the nodes: what a node with no serial
        # predecessor (-1) pushes lands there, unread.
        latest_end = [horizon] * (n + 1)
        # Tightest latest-start-minus-lag any later node has pushed onto
        # each barrier group.  Going backwards, whatever a group has
        # collected by the time a member is reached came from nodes that
        # started after that member existed, so it binds the member.
        # The extra last slot takes the pushes of untriggered nodes.
        bound = [horizon] * (self._num_groups + 1)
        # Every edge points to a higher index, so a node's latest end is
        # final when the backward walk reaches it and its slack is known.
        slack = [0.0] * n
        for index, group, duration, start, serial, trigger, lag in zip(
                range(n - 1, -1, -1), reversed(self._group),
                reversed(durations), reversed(starts),
                reversed(self._serial), reversed(self._trigger),
                reversed(self._lag)):
            latest = latest_end[index]
            limit = bound[group]
            if limit < latest:
                latest = limit
            latest_start = latest - duration
            late = latest_start - start
            if late > 0.0:
                slack[index] = late
            if latest_start < latest_end[serial]:
                latest_end[serial] = latest_start
            limit = latest_start - lag
            if limit < bound[trigger]:
                bound[trigger] = limit

        hops: List[int] = []
        if n:
            # The latest finisher, lowest index on ties.
            current = ends.index(max(ends))
            while True:
                hops.append(current)
                # The predecessor that released this node: among those
                # whose finish + lag meets its start, the latest
                # finisher, highest index on ties — within the trigger
                # group that is the last member of the prefix.
                determining = -1
                serial, last = self._serial[current], self._last[current]
                if serial >= 0 and abs(ends[serial]
                                       - starts[current]) <= tol:
                    determining = serial
                if last >= 0:
                    if (abs(ends[last] + self._lag[current]
                            - starts[current]) <= tol
                            and (determining < 0 or (ends[last], last)
                                 > (ends[determining], determining))):
                        determining = last
                if determining < 0:
                    break
                current = determining
            hops.reverse()

        # Only the path's own rows become report entries.
        path: List[PathStep] = []
        previous_end = self.origin
        for index in hops:
            resource, tag, nbytes, start, end = self._ops[index]
            wait = start - previous_end
            path.append(tuple.__new__(PathStep, (
                resource, tag, nbytes, start, end, durations[index],
                wait if wait > 0.0 else 0.0)))
            previous_end = end
        return CritPathReport(step_seconds=self.step_seconds,
                              makespan=self.makespan, path=path,
                              slack=slack, num_nodes=n,
                              num_edges=self.num_edges)

    # ------------------------------------------------------------------
    # introspection helpers for interventions
    # ------------------------------------------------------------------
    def resources(self) -> List[str]:
        """Distinct resources, busiest first."""
        busy: Dict[str, float] = {}
        for node in self.nodes:
            busy[node.resource] = (busy.get(node.resource, 0.0)
                                   + node.duration)
        return sorted(busy, key=lambda name: -busy[name])

    def device_count(self) -> int:
        """Distinct CSD/SSD indices appearing in node resources."""
        indices = set()
        for node in self.nodes:
            match = _DEVICE_RESOURCE.match(node.resource)
            if match:
                indices.add(int(match.group(2)))
        return len(indices)


# ----------------------------------------------------------------------
# interventions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Intervention:
    """A counterfactual edit to the DAG's node durations.

    ``kind`` selects the semantics; ``params`` the knobs.  Durations
    scale only in their data-proportional part: ``duration' = latency +
    (duration - latency) * factor`` — command latency survives any
    bandwidth change.
    """

    kind: str
    label: str
    params: Tuple[Tuple[str, object], ...]

    def param(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)

    def durations(self, graph: DepGraph) -> List[float]:
        """The edited duration vector for ``graph``."""
        if self.kind == "scale":
            channel = str(self.param("channel"))
            factor = float(self.param("factor"))
            return _scale_durations(
                graph, factor,
                lambda node: node.resource == channel)
        if self.kind == "add_csds":
            extra = int(self.param("extra"))
            current = graph.device_count()
            if current <= 0 or extra <= 0:
                return graph.durations()
            factor = current / (current + extra)
            return _scale_durations(
                graph, factor,
                lambda node: _DEVICE_RESOURCE.match(node.resource)
                is not None)
        if self.kind == "compression_ratio":
            ratio = float(self.param("ratio"))
            baseline = float(self.param("baseline"))
            if baseline <= 0:
                raise TelemetryError(
                    "compression_ratio intervention needs a positive "
                    "baseline ratio")
            factor = ratio / baseline
            return _scale_durations(
                graph, factor,
                lambda node: node.tag in _GRADIENT_TAGS)
        raise TelemetryError(
            f"unknown intervention kind {self.kind!r}")


def _scale_durations(graph: DepGraph, factor: float,
                     selector) -> List[float]:
    if factor <= 0:
        raise TelemetryError(
            f"intervention factor must be positive, got {factor}")
    durations = graph.durations()
    if factor == 1.0:
        return durations
    for node in graph.nodes:
        if selector(node):
            data = max(0.0, node.duration - node.latency)
            durations[node.index] = node.latency + data * factor
    return durations


def scale(channel: str, factor: float) -> Intervention:
    """The named channel's transfers take ``factor`` times as long
    (0.5 = the link got twice as fast; 2.0 = half the bandwidth)."""
    return Intervention(
        kind="scale", label=f"scale({channel}, {factor:g})",
        params=(("channel", channel), ("factor", float(factor))))


def add_csds(extra: int) -> Intervention:
    """``extra`` more CSDs: device-internal work (ssd*/csd* channels)
    spreads over ``current + extra`` devices; the shared host link is
    deliberately left unchanged (documented approximation — per-device
    volumes shrink, host-side volume does not)."""
    return Intervention(kind="add_csds", label=f"add_csds(+{extra})",
                        params=(("extra", int(extra)),))


def compression_ratio(ratio: float,
                      baseline: float = 0.02) -> Intervention:
    """SmartComp volume ratio changes from ``baseline`` to ``ratio``:
    gradient-offload transfers scale by ``ratio / baseline``
    (decompressor and P2P-load costs are left unchanged — documented
    approximation)."""
    return Intervention(
        kind="compression_ratio",
        label=f"compression_ratio({ratio:g})",
        params=(("ratio", float(ratio)), ("baseline", float(baseline))))


def interleave() -> Intervention:
    """Project the interleaved schedule from a *phased* trace: the
    update pipeline starts once the first gradient block lands instead
    of at the offload barrier, so the update phase collapses to
    whatever tail the backward span could not hide.  A schedule change
    edits the DAG's *edges*, not its durations, so :func:`project`
    handles this kind analytically from the phase windows rather than
    through a duration replay."""
    return Intervention(kind="interleave", label="interleave()",
                        params=())


def _project_interleave(graph: DepGraph) -> float:
    """Projected step seconds of the interleaved schedule.

    Two regimes bound the fused pipeline's finish time and the max of
    the pair is the projection:

    * update-bound — device work never starves after the first gradient
      block lands at ``gate0``, so the measured update span replays
      intact from there: ``gate0 + span``;
    * gradient-bound — updates drain faster than gradients land, so the
      last subgroup (``span / nsub``) runs after the backward window
      closes: ``b_end + span / nsub``.

    Validated under the 5% what-if gate for the near-storage (smart)
    methods this schedule targets; the baseline's depth-2 RAID pipeline
    shares its write channels with the gradient offload, so on very
    small RAID sets (2 members) the projection can overestimate the
    overlap win beyond the gate — a documented approximation.
    """
    windows = {name: (start, end)
               for name, start, end in graph.phase_windows}
    backward = windows.get("backward_grad") or windows.get("grad_offload")
    update = windows.get("update")
    if backward is None or update is None:
        return graph.step_seconds
    b_end = backward[1]
    u_start, u_end = update
    span = u_end - u_start
    if span <= 0:
        return graph.step_seconds
    grads = [node for node in graph.nodes if node.tag in _GRADIENT_TAGS]
    if not grads:
        return graph.step_seconds
    tol = 1e-9 * max(1.0, abs(u_end))
    first_start = min(node.start for node in grads)
    # The first block's offload legs (shared link + per-device writes)
    # all start together on idle channels; the slowest leg's end is when
    # every device holds gradient block 0.
    gate0 = max(node.end for node in grads
                if node.start <= first_start + tol)
    # Pipeline depth: update ops per engine within the update window
    # (``csd*-updater`` subgroup passes, or the baseline's
    # ``cpu-updater`` block loop).
    per_engine: Dict[str, int] = {}
    for node in graph.nodes:
        if (node.resource.endswith("-updater")
                and node.start >= u_start - tol):
            per_engine[node.resource] = per_engine.get(node.resource,
                                                       0) + 1
    nsub = max(per_engine.values()) if per_engine else 0
    tail = span / nsub if nsub else 0.0
    projected = max(gate0 + span, b_end + tail)
    return min(graph.step_seconds, projected)


@dataclass(frozen=True)
class Projection:
    """One intervention's projected effect on the step time."""

    label: str
    baseline_step_seconds: float
    projected_step_seconds: float

    @property
    def reduction_seconds(self) -> float:
        return self.baseline_step_seconds - self.projected_step_seconds

    @property
    def speedup(self) -> float:
        if self.projected_step_seconds <= 0:
            return 0.0
        return self.baseline_step_seconds / self.projected_step_seconds


def project(graph: DepGraph, intervention: Intervention) -> Projection:
    """Replay the DAG under one intervention."""
    if intervention.kind == "interleave":
        # Edge-level change: handled analytically from phase windows.
        projected = _project_interleave(graph)
    else:
        projected = graph.projected_step_seconds(
            intervention.durations(graph))
    return Projection(label=intervention.label,
                      baseline_step_seconds=graph.step_seconds,
                      projected_step_seconds=projected)


def rank_interventions(graph: DepGraph,
                       interventions: Sequence[Intervention]
                       ) -> List[Projection]:
    """Project every intervention, best step-time reduction first."""
    projections = [project(graph, item) for item in interventions]
    projections.sort(key=lambda p: (-p.reduction_seconds, p.label))
    return projections


def default_interventions(graph: DepGraph, ratio: float = 0.02
                          ) -> List[Intervention]:
    """A canonical candidate set: halve the busiest links' transfer
    times, double the CSD fleet, halve the compression ratio (when the
    run carries gradient-offload traffic)."""
    candidates = [scale(name, 0.5) for name in graph.resources()[:3]]
    devices = graph.device_count()
    if devices > 0:
        candidates.append(add_csds(devices))
    if any(node.tag in _GRADIENT_TAGS for node in graph.nodes):
        candidates.append(compression_ratio(ratio / 2.0,
                                            baseline=ratio))
    names = {name for name, _start, _end in graph.phase_windows}
    if "update" in names and ("backward_grad" in names
                              or "grad_offload" in names):
        candidates.append(interleave())
    return candidates


def render_projections(projections: Sequence[Projection]) -> str:
    """Terminal pane: ranked what-if projections."""
    if not projections:
        return "what-if projections: none requested"
    lines = ["what-if projections (ranked by step-time reduction):"]
    width = max(len(p.label) for p in projections)
    for p in projections:
        lines.append(
            f"  {p.label.ljust(width)}  "
            f"{p.baseline_step_seconds:.3f} s -> "
            f"{p.projected_step_seconds:.3f} s  "
            f"({p.reduction_seconds:+.3f} s saved, "
            f"{p.speedup:.2f}x)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# self-validation records (the validators, which re-run the DES with the
# intervention applied, live in :mod:`repro.perf.analysis`)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProjectionValidation:
    """Projected vs DES-measured step time for one intervention
    (``label``: its :attr:`Intervention.label`).  ``channel`` and
    ``factor`` name a scaling; a schedule change carries the marker
    ``schedule:interleaved`` and factor 1.0 there, so the JSONL export
    and the CLI gate treat both uniformly."""

    label: str
    channel: str
    factor: float
    baseline_step_seconds: float
    projected_step_seconds: float
    actual_step_seconds: float

    @property
    def error(self) -> float:
        """Relative projection error vs the DES re-run."""
        if self.actual_step_seconds <= 0:
            return 0.0
        return (abs(self.projected_step_seconds
                    - self.actual_step_seconds)
                / self.actual_step_seconds)

    def render(self) -> str:
        return (f"validate {self.label}: "
                f"projected {self.projected_step_seconds:.3f} s, "
                f"DES re-run {self.actual_step_seconds:.3f} s "
                f"(error {self.error:.2%})")


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------
def write_critpath_jsonl(path: str, report: CritPathReport,
                         projections: Sequence[Projection] = (),
                         validations: Sequence[ProjectionValidation] = (),
                         meta: Optional[Dict[str, object]] = None) -> str:
    """The ``smart-infinity/critpath/v1`` event log; returns ``path``."""
    records: List[Dict[str, object]] = [{
        "type": "meta", "schema": CRITPATH_SCHEMA,
        "step_seconds": report.step_seconds,
        "makespan": report.makespan,
        "path_seconds": report.path_seconds,
        "wait_seconds": report.wait_seconds,
        "path_hops": len(report.path),
        "tracked_ops": report.num_nodes,
        "edges": report.num_edges,
        **(meta or {}),
    }]
    for index, step in enumerate(report.path):
        records.append({
            "type": "path_step", "index": index,
            "resource": step.resource, "tag": step.tag,
            "nbytes": step.nbytes, "start": step.start,
            "end": step.end, "duration": step.duration,
            "wait": step.wait,
        })
    for resource, seconds in sorted(report.resource_seconds().items()):
        records.append({
            "type": "path_resource", "resource": resource,
            "seconds": seconds,
            "fraction": (seconds / report.step_seconds
                         if report.step_seconds > 0 else 0.0),
        })
    for projection in projections:
        records.append({
            "type": "projection", "label": projection.label,
            "baseline_step_seconds": projection.baseline_step_seconds,
            "projected_step_seconds":
                projection.projected_step_seconds,
            "reduction_seconds": projection.reduction_seconds,
            "speedup": projection.speedup,
        })
    for validation in validations:
        records.append({
            "type": "validation", "channel": validation.channel,
            "factor": validation.factor,
            "projected_step_seconds":
                validation.projected_step_seconds,
            "actual_step_seconds": validation.actual_step_seconds,
            "error": validation.error,
        })
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


__all__ = [
    "CRITPATH_SCHEMA",
    "CritPathReport",
    "DagNode",
    "DepGraph",
    "Intervention",
    "PathStep",
    "Projection",
    "ProjectionValidation",
    "add_csds",
    "compression_ratio",
    "default_interventions",
    "interleave",
    "project",
    "rank_interventions",
    "render_projections",
    "scale",
    "write_critpath_jsonl",
]
