"""One observed step and everything the observers read off it.

:func:`resolve` turns the names a command line carries (model, device
count, GPU) into the DES's inputs; :func:`observe` runs one scenario and
returns an :class:`Observation` — the step's
:class:`~repro.telemetry.attrib.Timeline` plus, on first use, the
channel summaries, the phase x resource attribution and the critical
path.  ``top``, ``whatif``, ``trace`` and the
``ext_bottlenecks`` experiment all go through these two, so the "where
does the time go" answers behind the paper's narrative are computed one
way:

* baseline — the shared host interconnect saturates (Fig. 3b);
* SmartUpdate — the bottleneck moves to the per-device NAND channels,
  which aggregate with device count (§IV-A);
* SmartComp — with gradients compressed, the remaining shared-channel
  load is the upstream parameter transfer (§VIII-B).

:meth:`Observation.from_chrome_trace` observes a finished trace file
instead.  A what-if question is one more :func:`observe` with the change
applied (``channel_scales``, another device count or ratio, the
interleaved schedule): the DES answers it exactly.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from ..hw.gpu import GPUS
from ..hw.topology import SystemSpec, default_system
from ..nn.models import get_model
from ..sim.resources import Channel
from ..sim.trace import (ChannelSummary, summarize_channels,
                         traffic_by_tag)
from ..telemetry.attrib import Attribution, Timeline
from ..telemetry.critpath import CritPathReport, DepGraph
from .scenarios import PhaseBreakdown, ScenarioTrace, trace_scenario
from .workload import Workload, make_workload


def resolve(model: str, csds: int, gpu: str = "a5000",
            **workload_kwargs) -> Tuple[SystemSpec, Workload]:
    """``(system, workload)`` for a zoo model name, a device count and a
    GPU catalog name; ``workload_kwargs`` go to :func:`make_workload`."""
    return (default_system(num_csds=csds, gpu=GPUS[gpu]()),
            make_workload(get_model(model), **workload_kwargs))


class Observation:
    """One step's timeline and its derived views.

    The views are computed when first read and then kept: ``trace``
    only needs the timeline, ``top`` the attribution and
    the path, ``whatif`` the graph.  ``source`` says where the timeline
    came from ("sim": :func:`observe`, which also keeps the
    :class:`ScenarioTrace` and the scenario's inputs; "trace": a Chrome
    trace file, which has neither); ``label`` and ``meta`` are what the
    renderers and the JSONL logs print about it.
    """

    def __init__(self, timeline: Timeline, source: str, label: str,
                 meta: Optional[Dict[str, object]] = None,
                 trace: Optional[ScenarioTrace] = None,
                 scenario: Optional[Dict[str, object]] = None) -> None:
        self.timeline = timeline
        self.source = source
        self.label = label
        self.meta = dict(meta or {})
        self.trace = trace
        #: :func:`observe`'s arguments.
        self.scenario = scenario

    @classmethod
    def from_chrome_trace(cls, path: str) -> "Observation":
        """Observe a finished Chrome trace-event JSON file (as written
        by ``python -m repro trace``): the sim-time domain when present,
        otherwise the wall-clock spans."""
        with open(path) as handle:
            document = json.load(handle)
        meta = dict(document.get("otherData") or {})
        meta["path"] = path
        return cls(Timeline.from_chrome(document), "trace", path, meta)

    @property
    def method(self) -> str:
        return self.scenario["method"]

    @property
    def breakdown(self) -> PhaseBreakdown:
        return self.trace.breakdown

    @cached_property
    def channels(self) -> List[Channel]:
        return self.trace.fabric.all_channels()

    @cached_property
    def summaries(self) -> List[ChannelSummary]:
        """Per-channel totals, busiest first."""
        return summarize_channels(self.channels)

    @cached_property
    def tag_bytes(self) -> Dict[str, float]:
        return traffic_by_tag(self.channels)

    @cached_property
    def attribution(self) -> Attribution:
        """Phase x resource decomposition (buckets tile the step)."""
        return self.timeline.attribution(
            horizon=self.trace.breakdown.total if self.trace else None)

    @cached_property
    def graph(self) -> DepGraph:
        return DepGraph(self.timeline)

    @cached_property
    def critpath(self) -> Optional[CritPathReport]:
        """CPM slack + the gating chain; ``None`` without operations."""
        return self.graph.critical_path() if self.graph.nodes else None

    @property
    def bottleneck(self) -> ChannelSummary:
        return self.summaries[0]

    def channel(self, name: str) -> ChannelSummary:
        for summary in self.summaries:
            if summary.name == name:
                return summary
        raise KeyError(f"unknown channel {name!r}")

    def shared_link_bytes(self) -> float:
        """Bytes that crossed the host interconnect (both directions)."""
        up = self.channel("host-link-up")
        down = self.channel("host-link-down")
        return up.bytes_total + down.bytes_total

    def render(self, top: int = 6) -> str:
        lines = [f"method {self.method}: iteration "
                 f"{self.breakdown.total:.2f}s, bottleneck = "
                 f"{self.bottleneck.name} "
                 f"({self.bottleneck.busy_time:.2f}s busy)"]
        for summary in self.summaries[:top]:
            lines.append(
                f"  {summary.name:<22} busy {summary.busy_time:6.2f}s  "
                f"util {summary.utilization:6.1%}  "
                f"{summary.bytes_total / 1e9:8.2f} GB")
        lines.append("  " + self.attribution.verdict().render())
        if self.critpath is not None and self.critpath.path:
            shares = sorted(self.critpath.resource_seconds().items(),
                            key=lambda kv: -kv[1])
            head = ", ".join(f"{name} {seconds:.2f}s"
                             for name, seconds in shares[:3])
            coverage = (self.critpath.path_seconds / self.breakdown.total
                        if self.breakdown.total > 0 else 0.0)
            lines.append(
                f"  critical path: {len(self.critpath.path)} hops, "
                f"{self.critpath.path_seconds:.2f}s busy + "
                f"{self.critpath.wait_seconds:.2f}s waits "
                f"({coverage:.0%} of step) — {head}")
        return "\n".join(lines)


def observe(system: SystemSpec, workload: Workload, method: str,
            compression_ratio: float = 0.02, schedule: str = "phased",
            channel_scales: Optional[Mapping[str, float]] = None
            ) -> Observation:
    """Run one scenario (see :func:`trace_scenario`) and wrap it."""
    trace = trace_scenario(
        system, workload, method, compression_ratio=compression_ratio,
        channel_scales=channel_scales, schedule=schedule)
    return Observation(
        Timeline.from_channels(trace.fabric.all_channels(),
                               trace.phase_windows),
        "sim", method, trace=trace,
        scenario=dict(system=system, workload=workload, method=method,
                      compression_ratio=compression_ratio,
                      schedule=schedule))
