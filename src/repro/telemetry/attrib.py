"""Phase x resource attribution: which link/engine owns each second.

The paper's evaluation is a bottleneck story — Fig. 3b shows the shared
host interconnect saturating under ZeRO-Infinity-style offload, and
Figs. 9/11/14 explain each speedup by naming the link or engine that
stopped being the critical resource.  This module produces that account
mechanically from any run:

* **busy windows** — per-resource ``(start, end)`` occupancy intervals,
  and **phase windows** — the iteration's ``(phase, start, end)``
  intervals, both read off one :class:`Timeline`, whose constructors
  harvest them from DES channels, from wall-clock spans tagged with a
  ``resource`` attribute, or from a Chrome trace document;
* **buckets** — a decomposition of every phase into per-resource owned
  time with the invariant that **buckets tile the phases exactly**:
  ``sum(buckets.values()) == step_seconds`` to float precision.

The decomposition sweeps each phase window over the union of resource
interval boundaries.  Each elementary slice is owned by exactly one
bucket: the idle/compute bucket (:data:`COMPUTE`) when no resource is
busy, otherwise the busiest active resource of that phase (total clipped
busy time; lexicographic tie-break).  "Busiest active wins" matches how
the paper narrates critical paths — when the NAND read overlaps the FPGA
updater, the slice is charged to whichever gates the phase overall.

The bottleneck verdict names the resource with the highest busy
*fraction* of the step (utilization), with its owned share alongside:
``bottleneck: host-link-down, 71% occupied, owns 58% of step``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import TelemetryError
from ..sim.resources import TransferRecord

#: Bucket owning the slices where no tracked resource is busy (GPU
#: compute, host software overhead, pure pipeline bubbles).
COMPUTE = "compute"

Interval = Tuple[float, float]
PhaseWindow = Tuple[str, float, float]


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Union of (start, end) intervals as a sorted, disjoint list."""
    spans = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Interval] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _merge_ops(ops: Sequence[TransferRecord]) -> List[Interval]:
    """:func:`merge_intervals` of a resource's operations, in one pass
    with no sort when they come in start order — a DES channel's records
    are FIFO and disjoint by construction.  Wall-clock operations out of
    order (worker threads) take the sorting path."""
    merged: List[Interval] = []
    low = high = None
    for op in ops:
        start, end = op.start, op.end
        if end <= start:
            continue
        if high is None:
            low, high = start, end
        elif start < low:
            return merge_intervals([(op.start, op.end) for op in ops])
        elif start <= high:
            if end > high:
                high = end
        else:
            merged.append((low, high))
            low, high = start, end
    if high is not None:
        merged.append((low, high))
    return merged


def _clip(intervals: Sequence[Interval], ends: Sequence[float],
          start: float, end: float) -> List[Interval]:
    """Intersect disjoint sorted ``intervals`` with [start, end).

    ``ends`` is the intervals' end column (sorted too, because they are
    disjoint): two bisections find the overlapping run, and only its
    first and last member can stick out of the window.
    """
    first = bisect.bisect_right(ends, start)
    last = bisect.bisect_left(intervals, (end,), first)
    if first >= last:
        return []
    clipped = list(intervals[first:last])
    if clipped[0][0] < start:
        clipped[0] = (start, clipped[0][1])
    if clipped[-1][1] > end:
        clipped[-1] = (clipped[-1][0], end)
    return clipped


@dataclass(frozen=True)
class ResourceUsage:
    """Whole-run occupancy of one link/engine."""

    name: str
    busy_seconds: float
    utilization: float
    bytes_total: float = 0.0
    capacity: Optional[float] = None


@dataclass(frozen=True)
class BottleneckVerdict:
    """The run's critical resource, in the paper's narration format."""

    resource: str
    utilization: float
    owned_seconds: float
    owned_fraction: float
    step_seconds: float

    def render(self) -> str:
        return (f"bottleneck: {self.resource}, "
                f"{self.utilization:.0%} occupied, "
                f"owns {self.owned_fraction:.0%} of step")


@dataclass
class Attribution:
    """Phase x resource decomposition of one iteration/run.

    ``buckets`` maps ``(phase, resource)`` to owned seconds;
    ``usage`` maps resource name to its whole-run occupancy.  The
    construction guarantees the buckets tile the phase windows, so
    :meth:`conservation_error` is zero up to float rounding.
    """

    step_seconds: float
    buckets: Dict[Tuple[str, str], float]
    usage: Dict[str, ResourceUsage]
    phases: List[str] = field(default_factory=list)

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (phase, _resource), seconds in self.buckets.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def resource_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (_phase, resource), seconds in self.buckets.items():
            totals[resource] = totals.get(resource, 0.0) + seconds
        return totals

    def fractions(self) -> Dict[Tuple[str, str], float]:
        if self.step_seconds <= 0:
            return {key: 0.0 for key in self.buckets}
        return {key: seconds / self.step_seconds
                for key, seconds in self.buckets.items()}

    def conservation_error(self) -> float:
        """|sum(buckets) - step_seconds| — zero by construction."""
        return abs(sum(self.buckets.values()) - self.step_seconds)

    def verdict(self) -> BottleneckVerdict:
        """Max-busy-fraction resource plus its owned share of the step."""
        if not self.usage:
            return BottleneckVerdict(
                resource=COMPUTE, utilization=0.0,
                owned_seconds=self.step_seconds,
                owned_fraction=1.0 if self.step_seconds > 0 else 0.0,
                step_seconds=self.step_seconds)
        name = max(sorted(self.usage),
                   key=lambda n: self.usage[n].utilization)
        owned = self.resource_totals().get(name, 0.0)
        return BottleneckVerdict(
            resource=name,
            utilization=self.usage[name].utilization,
            owned_seconds=owned,
            owned_fraction=(owned / self.step_seconds
                            if self.step_seconds > 0 else 0.0),
            step_seconds=self.step_seconds)


def _sweep_window(start: float, end: float,
                  clipped: Mapping[str, Sequence[Interval]]
                  ) -> Dict[str, float]:
    """Owned seconds per bucket over one phase window, in the order the
    buckets first own a slice.

    One sweep over the sorted cut points: the active set changes only at
    interval boundaries, and the owner of a contested slice is the
    active resource busiest across the whole window (lexicographic
    tie-break) — rank 0 of ``ranked``.
    """
    weight = {name: sum(e - s for s, e in ivs)
              for name, ivs in clipped.items() if ivs}
    ranked = sorted(weight, key=lambda name: (-weight[name], name))
    opens: Dict[float, List[int]] = {}
    closes: Dict[float, List[int]] = {}
    for rank, name in enumerate(ranked):
        for s, e in clipped[name]:
            opens.setdefault(s, []).append(rank)
            closes.setdefault(e, []).append(rank)
    owned: Dict[str, float] = {}
    active = set()
    lo = before = None
    for hi in sorted({start, end, *opens, *closes}):
        active.difference_update(closes.get(hi, ()))
        active.update(opens.get(hi, ()))
        here = ranked[min(active)] if active else COMPUTE
        if lo is not None:
            # A slice is owned by whoever is busy at its midpoint.  One
            # ulp wide, it has no float strictly inside: the midpoint
            # rounds onto an endpoint, and when that is ``hi`` the
            # resources busy *at* hi own it (an interval starting there
            # counts, one ending there does not).
            owner = here if (lo + hi) / 2.0 >= hi else before
            owned[owner] = owned.get(owner, 0.0) + (hi - lo)
        lo, before = hi, here
    return owned


def attribute(phase_windows: Sequence[PhaseWindow],
              busy_windows: Mapping[str, Sequence[Interval]],
              bytes_by_resource: Optional[Mapping[str, float]] = None,
              capacities: Optional[Mapping[str, float]] = None,
              horizon: Optional[float] = None) -> Attribution:
    """Decompose phase windows into per-resource owned time.

    ``phase_windows`` must not overlap each other (phases of one
    iteration are sequential); ``busy_windows`` may overlap freely across
    resources.  ``horizon`` (default: total phase time) is the
    denominator for utilization.
    """
    return _attribute(phase_windows, {
        str(name): merge_intervals(intervals)
        for name, intervals in busy_windows.items()},
        bytes_by_resource, capacities, horizon)


def _attribute(phase_windows: Sequence[PhaseWindow],
               merged: Mapping[str, List[Interval]],
               bytes_by_resource: Optional[Mapping[str, float]],
               capacities: Optional[Mapping[str, float]],
               horizon: Optional[float]) -> Attribution:
    """:func:`attribute` over busy windows already merged."""
    windows = [(str(p), float(s), float(e))
               for p, s, e in phase_windows if e > s]
    ordered = sorted(windows, key=lambda w: w[1])
    for (_, _, prev_end), (name, start, _) in zip(ordered, ordered[1:]):
        if start < prev_end - 1e-12:
            raise TelemetryError(
                f"phase windows overlap at {start:.6f}s (phase {name!r}); "
                f"attribution needs sequential phases")
    ends = {name: [e for _, e in intervals]
            for name, intervals in merged.items()}

    step_seconds = sum(end - start for _, start, end in windows)
    if horizon is None:
        horizon = step_seconds
    buckets: Dict[Tuple[str, str], float] = {}
    phases: List[str] = []

    for phase, start, end in ordered:
        if phase not in phases:
            phases.append(phase)
        owned = _sweep_window(start, end, {
            name: _clip(intervals, ends[name], start, end)
            for name, intervals in merged.items()})
        # Re-tile this window exactly: rounding across many slices must
        # not break the conservation invariant the tests assert.  Per
        # window, not per label — a label repeats once per step in a
        # multi-step trace, and each repeat tiles its own window.
        drift = (end - start) - sum(owned.values())
        if abs(drift) > 0.0:
            owned[max(owned, key=owned.get)] += drift
        for owner, seconds in owned.items():
            key = (phase, owner)
            buckets[key] = buckets.get(key, 0.0) + seconds

    usage: Dict[str, ResourceUsage] = {}
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


#: Engine span names that mark iteration phases in wall-clock traces.
#: ``interleaved_update`` is the fused offload+update span the
#: interleaved schedule emits in place of the separate ``grad_offload``
#: and ``update`` phases (the work overlaps, so one wall-clock window
#: keeps the phases disjoint for :func:`attribute`).
PHASE_SPAN_NAMES = ("forward_backward", "grad_offload", "update",
                    "interleaved_update")

#: Chrome trace-event categories of the two time domains, and the
#: timestamp unit (microseconds per second) — shared with the writer in
#: :mod:`~repro.telemetry.export`.
CAT_WALL, CAT_SIM, CAT_SIM_PHASE = "wall", "sim", "sim-phase"
TRACE_TIME_SCALE = 1e6
#: Instants of a re-imported trace closer than this (relative) are one
#: instant again: far above microsecond-rounding noise, far below any
#: modelled latency.
TRACE_SNAP = 1e-12


@dataclass
class Timeline:
    """One step (or run) as every observer reads it.

    ``phases`` are the ``(name, start, end)`` windows; ``ops`` maps each
    resource to its operations in FIFO order, each a
    :class:`~repro.sim.resources.TransferRecord` (``.start``, ``.end``,
    ``.tag``, ``.nbytes``) whatever the source.  A resource may be
    listed with no operations (an idle DES channel still gets a trace
    lane).  ``bytes_total`` is each resource's byte count (a DES
    channel's own running total, so nothing re-sums its records),
    ``latency`` the fixed command overhead per operation on it and
    ``capacity`` its bandwidth, where the source knows them.  There is
    one constructor per evidence source; attribution, the dependency
    graph, the Chrome export and the ``util:*`` health signals read
    nothing else.
    """

    phases: List[PhaseWindow]
    ops: Dict[str, Sequence[TransferRecord]]
    bytes_total: Dict[str, float] = field(default_factory=dict)
    latency: Dict[str, float] = field(default_factory=dict)
    capacity: Dict[str, float] = field(default_factory=dict)
    #: The instant the step's first operation may start; ``None`` means
    #: the earliest instant the timeline mentions.
    origin: Optional[float] = None

    @classmethod
    def from_channels(cls, channels, phase_windows) -> "Timeline":
        """DES channels (``.name``/``.records``/``.latency``/
        ``.bandwidth``/``.bytes_total``) and the
        :class:`~repro.sim.resources.PhaseClock` windows.  Holds the
        channels' own record lists (FIFO by construction)."""
        channels = list(channels)
        return cls(
            phases=[(str(p), float(s), float(e))
                    for p, s, e in phase_windows],
            ops={channel.name: channel.records for channel in channels},
            bytes_total={channel.name: getattr(channel, "bytes_total", 0.0)
                         for channel in channels},
            latency={channel.name: float(getattr(channel, "latency", 0.0))
                     for channel in channels},
            capacity={channel.name: channel.bandwidth
                      for channel in channels
                      if getattr(channel, "bandwidth", None) is not None},
            origin=0.0)

    @classmethod
    def from_spans(cls, spans,
                   phase_names: Sequence[str] = PHASE_SPAN_NAMES
                   ) -> "Timeline":
        """Recorded wall-clock spans: one carrying a ``resource``
        attribute is an operation on that resource (tag: the span's
        name), one named in ``phase_names`` a phase window.  Spans
        forwarded from worker processes are on the session's clock
        already, so they chain like local ones."""
        timeline = cls(phases=[], ops={})
        for span in spans:
            attrs = span.attrs or {}
            resource = attrs.get("resource")
            if resource is not None:
                timeline._add(TransferRecord(
                    str(resource), span.name,
                    float(attrs.get("nbytes", 0.0)), span.start, span.end))
            elif span.name in phase_names:
                timeline.phases.append((span.name, span.start, span.end))
        return timeline

    @classmethod
    def from_chrome(cls, document: Mapping) -> "Timeline":
        """A Chrome trace-event document as :func:`~repro.telemetry.
        export.chrome_trace` writes it: the sim-time domain when it has
        phase windows, else the wall-clock one.  The file stores
        microseconds, so instants that were equal come back a few ulps
        apart; they are merged again (:data:`TRACE_SNAP`), which keeps
        FIFO hand-offs and barriers recognisable as such."""
        events = [event for event in document.get("traceEvents", [])
                  if event.get("ph") == "X"]
        sim = any(event.get("cat") == CAT_SIM_PHASE for event in events)
        timeline = cls(phases=[], ops={})
        for event in events:
            start = float(event.get("ts", 0.0)) / TRACE_TIME_SCALE
            end = start + float(event.get("dur", 0.0)) / TRACE_TIME_SCALE
            args = event.get("args") or {}
            cat, name = event.get("cat"), str(event.get("name", ""))
            nbytes = float(args.get("nbytes") or 0.0)
            if sim and cat == CAT_SIM:
                # The writer names an untagged transfer after its lane.
                channel = str(args.get("channel", name))
                timeline._add(TransferRecord(
                    channel, "" if name == channel else name, nbytes,
                    start, end))
            elif sim and cat == CAT_SIM_PHASE:
                timeline.phases.append((name, start, end))
            elif sim or cat != CAT_WALL:
                continue
            elif args.get("resource") is not None:
                timeline._add(TransferRecord(str(args["resource"]), name,
                                             nbytes, start, end))
            elif name in PHASE_SPAN_NAMES:
                timeline.phases.append((name, start, end))
        if not timeline.phases:
            raise TelemetryError(
                "trace has neither sim-phase windows nor wall-clock phase "
                "spans — nothing to attribute")
        return timeline._snap()

    def _add(self, op: TransferRecord) -> None:
        self.ops.setdefault(op.channel, []).append(op)
        self.bytes_total[op.channel] = (
            self.bytes_total.get(op.channel, 0.0) + op.nbytes)

    def _snap(self) -> "Timeline":
        """Replace instants closer than :data:`TRACE_SNAP` (relative) by
        the earliest of them; returns ``self``."""
        snap: Dict[float, float] = {}
        anchor = None
        for instant in sorted(
                {t for _p, s, e in self.phases for t in (s, e)}
                | {t for ops in self.ops.values() for op in ops
                   for t in (op.start, op.end)}):
            if anchor is None or (instant - anchor
                                  > TRACE_SNAP * max(1.0, abs(instant))):
                anchor = instant
            snap[instant] = anchor
        self.phases = [(p, snap[s], snap[e]) for p, s, e in self.phases]
        self.ops = {name: [op._replace(start=snap[op.start],
                                       end=snap[op.end]) for op in ops]
                    for name, ops in self.ops.items()}
        return self

    @property
    def step_seconds(self) -> float:
        return sum(end - start for _phase, start, end in self.phases
                   if end > start)

    def attribution(self, horizon: Optional[float] = None) -> Attribution:
        """Phase x resource decomposition of this timeline.  Idle
        resources are omitted rather than reported at 0%; wall-clock
        operations on one resource may overlap (worker threads) and are
        merged before the sweep."""
        busy = {str(name): _merge_ops(ops)
                for name, ops in self.ops.items() if ops}
        return _attribute(self.phases, busy, self.bytes_total,
                          self.capacity, horizon)


def attribute_channels(phase_windows: Sequence[PhaseWindow], channels,
                       horizon: Optional[float] = None) -> Attribution:
    """Attribution of one DES iteration: :meth:`Timeline.from_channels`
    then :meth:`Timeline.attribution`."""
    return Timeline.from_channels(channels, phase_windows).attribution(
        horizon)
