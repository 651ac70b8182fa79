"""Critical-path observatory: dependency DAGs and slack.

The attribution layer (:mod:`repro.telemetry.attrib`) names the busiest
resource; this module shows which transfers actually *gate* the step.
It reconstructs a per-step dependency DAG from a
:class:`~repro.telemetry.attrib.Timeline` — whichever evidence source
that was built from: DES channel records, resource-tagged wall-clock
spans (child spans forwarded by the process backend included) or a
re-imported Chrome trace — and extracts the **critical path** with
per-node slack (classic CPM: earliest times are the measured schedule,
latest times anchor at the measured makespan; slack = latest - earliest
start, >= 0).

Edge inference:

* **serialization edges** — consecutive records on one channel (FIFO by
  construction) with lag 0: a transfer can never start before its
  channel predecessor finishes;
* **causal edges** — each node depends on the latest-finishing earlier
  node(s) whose end does not exceed its start.  When the lag is zero
  this is exactly the DES event that resumed the waiting process; a
  positive lag stands for whatever untracked work (compute timeouts,
  driver overheads) separated them;
* **source edges** — nodes with no predecessor anchor to the step
  origin with their measured lead-in as the lag.

What a counterfactual (a faster link, more CSDs, another Top-K ratio,
the interleaved schedule) buys is not read off this graph: ``repro
whatif`` re-runs the DES with the change applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from operator import itemgetter, sub
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..sim.resources import TransferRecord
from .attrib import Timeline

#: Schema marker of the critical-path JSONL export.
CRITPATH_SCHEMA = "smart-infinity/critpath/v1"

#: Fields of a :class:`~repro.sim.resources.TransferRecord` operation.
_RESOURCE, _START, _END = itemgetter(0), itemgetter(3), itemgetter(4)


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


class DepGraph:
    """Per-step dependency DAG over measured operations.

    Nodes (:attr:`nodes`, the measured operations) are topologically
    ordered (stable sort by start then end, so same-channel FIFO order
    survives ties); every edge points from a lower to a higher index.

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
        #: The measured operations, graph order.
        self.nodes = ops
        #: Measured start/end/duration columns, graph order.
        starts = self.measured_starts = list(map(_START, ops))
        ends = self.measured_ends = list(map(_END, ops))
        self._durations = list(map(sub, ends, starts))
        self.step_seconds = timeline.step_seconds
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
            resource, tag, nbytes, start, end = self.nodes[index]
            wait = start - previous_end
            path.append(tuple.__new__(PathStep, (
                resource, tag, nbytes, start, end, durations[index],
                wait if wait > 0.0 else 0.0)))
            previous_end = end
        return CritPathReport(step_seconds=self.step_seconds,
                              makespan=self.makespan, path=path,
                              slack=slack, num_nodes=n,
                              num_edges=self.num_edges)


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------
def write_critpath_jsonl(path: str, report: CritPathReport,
                         projections: Sequence[Mapping[str, object]] = (),
                         meta: Optional[Dict[str, object]] = None) -> str:
    """The ``smart-infinity/critpath/v1`` event log; returns ``path``.

    ``projections`` are ``whatif``'s counterfactual rows (``label``,
    ``baseline_step_seconds``, ``projected_step_seconds``,
    ``reduction_seconds``, ``speedup``), each written as one
    ``projection`` record."""
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
    records += [{"type": "projection", **row} for row in projections]
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


__all__ = [
    "CRITPATH_SCHEMA",
    "CritPathReport",
    "DepGraph",
    "PathStep",
    "write_critpath_jsonl",
]
