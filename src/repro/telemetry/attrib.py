"""Phase x resource attribution: which link/engine owns each second.

The paper's evaluation is a bottleneck story — Fig. 3b shows the shared
host interconnect saturating under ZeRO-Infinity-style offload, and
Figs. 9/11/14 explain each speedup by naming the link or engine that
stopped being the critical resource.  This module produces that account
mechanically from any run:

* **busy windows** — per-resource ``(start, end)`` occupancy intervals,
  harvested from DES :class:`~repro.sim.resources.TransferRecord` lists
  (:func:`attribute_channels`) or wall-clock spans tagged with a
  ``resource`` attribute (:func:`attribute_spans`);
* **phase windows** — the iteration's ``(phase, start, end)`` intervals
  (fwd / bwd+grad-offload / update for the DES, the engines' top-level
  phase spans for wall-clock);
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
    windows = [(str(p), float(s), float(e))
               for p, s, e in phase_windows if e > s]
    ordered = sorted(windows, key=lambda w: w[1])
    for (_, _, prev_end), (name, start, _) in zip(ordered, ordered[1:]):
        if start < prev_end - 1e-12:
            raise TelemetryError(
                f"phase windows overlap at {start:.6f}s (phase {name!r}); "
                f"attribution needs sequential phases")
    merged = {str(name): merge_intervals(intervals)
              for name, intervals in busy_windows.items()}
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


def attribute_channels(phase_windows: Sequence[PhaseWindow], channels,
                       horizon: Optional[float] = None) -> Attribution:
    """Attribution from DES channels (``.name``/``.records`` duck type).

    Channels serialize transfers (FIFO), so their record lists are
    already non-overlapping per channel; channels with no traffic are
    omitted rather than reported at 0%.
    """
    busy: Dict[str, List[Interval]] = {}
    nbytes: Dict[str, float] = {}
    caps: Dict[str, float] = {}
    for channel in channels:
        records = getattr(channel, "records", ())
        if not records:
            continue
        busy[channel.name] = [(r.start, r.end) for r in records]
        nbytes[channel.name] = getattr(channel, "bytes_total", 0.0)
        bandwidth = getattr(channel, "bandwidth", None)
        if bandwidth is not None:
            caps[channel.name] = bandwidth
    return attribute(phase_windows, busy, bytes_by_resource=nbytes,
                     capacities=caps, horizon=horizon)


#: Engine span names that mark iteration phases in wall-clock traces.
#: ``interleaved_update`` is the fused offload+update span the
#: interleaved schedule emits in place of the separate ``grad_offload``
#: and ``update`` phases (the work overlaps, so one wall-clock window
#: keeps the phases disjoint for :func:`attribute`).
PHASE_SPAN_NAMES = ("forward_backward", "grad_offload", "update",
                    "interleaved_update")


def attribute_spans(spans, phase_names: Sequence[str] = PHASE_SPAN_NAMES,
                    horizon: Optional[float] = None) -> Attribution:
    """Attribution from wall-clock spans.

    Spans named in ``phase_names`` become phase windows (their repeats
    across iterations accumulate into the same phase label); spans
    carrying a ``resource`` attribute become that resource's busy
    windows.  Worker-thread spans overlap freely — they are merged per
    resource before the sweep.
    """
    phase_windows: List[PhaseWindow] = []
    busy: Dict[str, List[Interval]] = {}
    nbytes: Dict[str, float] = {}
    for span in spans:
        resource = span.attrs.get("resource") if span.attrs else None
        if resource is not None:
            busy.setdefault(str(resource), []).append(
                (span.start, span.end))
            amount = span.attrs.get("nbytes")
            if amount is not None:
                nbytes[str(resource)] = (nbytes.get(str(resource), 0.0)
                                         + float(amount))
        elif span.name in phase_names:
            phase_windows.append((span.name, span.start, span.end))
    return attribute(phase_windows, busy, bytes_by_resource=nbytes,
                     horizon=horizon)
