"""Exporters: Chrome trace-event JSON and channel-metrics bridging.

The Chrome trace-event format (one JSON object with a ``traceEvents``
list) is what Perfetto and chrome://tracing load.  This module renders
*both* of the repository's time domains into it:

* **wall-clock** — :class:`~repro.telemetry.spans.Span` records from the
  functional engines, handler worker threads, and storage layer, grouped
  as process ``wall-clock`` with one lane per real thread;
* **sim-time** — a DES :class:`~repro.telemetry.attrib.Timeline`
  (channel activity and phase windows), grouped as process ``sim-time``
  with one lane per channel (sim seconds are mapped 1:1 onto trace
  microseconds).

Both use complete (``"ph": "X"``) events, so nesting falls out of
interval containment per lane, exactly how the viewers draw it.
:meth:`~repro.telemetry.attrib.Timeline.from_chrome` reads the document
back.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from ..sim.trace import summarize_channels
from .attrib import (CAT_SIM, CAT_SIM_PHASE, CAT_WALL, TRACE_TIME_SCALE,
                     Timeline)
from .metrics import MetricsRegistry
from .spans import Span

#: Process ids of the two time domains in the exported trace.
WALL_PID = 1
SIM_PID = 2

#: Lane reserved for DES phase windows inside the sim-time process.
PHASE_TID = 0


def _metadata(pid: int, tid: int, kind: str, name: str) -> Dict:
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind,
            "args": {"name": name}}


def _complete(name: str, cat: str, start: float, end: float, pid: int,
              tid: int, args: Dict) -> Dict:
    return {"name": name, "ph": "X", "cat": cat,
            "ts": start * TRACE_TIME_SCALE,
            "dur": (end - start) * TRACE_TIME_SCALE,
            "pid": pid, "tid": tid, "args": args}


def chrome_trace(spans: Sequence[Span] = (),
                 sim: Optional[Timeline] = None,
                 metadata: Optional[Dict] = None) -> Dict:
    """Assemble one loadable Chrome trace-event document.

    ``spans`` populate the wall-clock process, one lane per thread;
    ``sim`` (a DES timeline, :meth:`Timeline.from_channels`) the
    sim-time process: a phase lane, then one lane per channel in name
    order.  Either side may be empty; pass both to get the unified
    two-domain view.
    """
    events: List[Dict] = []
    spans = list(spans)
    if spans:
        events.append(_metadata(WALL_PID, 0, "process_name", "wall-clock"))
        tids: Dict[int, int] = {}
        for span in spans:
            tid = tids.get(span.thread_id)
            if tid is None:
                tid = tids[span.thread_id] = len(tids) + 1
                events.append(_metadata(WALL_PID, tid, "thread_name",
                                        span.thread_name))
            events.append(_complete(span.name, CAT_WALL, span.start,
                                    span.end, WALL_PID, tid,
                                    {"depth": span.depth, **span.attrs}))
    if sim is not None and (sim.ops or sim.phases):
        events.append(_metadata(SIM_PID, 0, "process_name", "sim-time"))
        events.append(_metadata(SIM_PID, PHASE_TID, "thread_name",
                                "phases"))
        for name, start, end in sim.phases:
            events.append(_complete(name, CAT_SIM_PHASE, start, end,
                                    SIM_PID, PHASE_TID, {}))
        for tid, (channel, ops) in enumerate(sorted(sim.ops.items()),
                                             start=PHASE_TID + 1):
            events.append(_metadata(SIM_PID, tid, "thread_name", channel))
            for op in ops:
                events.append(_complete(
                    op.tag or channel, CAT_SIM, op.start, op.end, SIM_PID,
                    tid, {"nbytes": op.nbytes, "channel": channel}))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(path: str, **kwargs) -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    document = chrome_trace(**kwargs)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    return path


def record_channel_metrics(registry: MetricsRegistry, channels,
                           horizon: Optional[float] = None,
                           **labels: object) -> None:
    """Mirror DES channel statistics into the metrics registry.

    The DES never touches wall-clock instruments, so ``--metrics`` on
    simulation commands goes through this bridge: per-channel byte/op
    counters plus busy-time and utilization gauges.  Extra ``labels``
    (e.g. ``method="su_o_c"``) are attached to every instrument.
    """
    for summary in summarize_channels(channels, horizon=horizon):
        registry.counter("des_channel_bytes_total", channel=summary.name,
                         **labels).inc(summary.bytes_total)
        registry.counter("des_channel_ops_total", channel=summary.name,
                         **labels).inc(summary.ops_total)
        registry.gauge("des_channel_busy_seconds", channel=summary.name,
                       **labels).set(summary.busy_time)
        registry.gauge("des_channel_utilization", channel=summary.name,
                       **labels).set(summary.utilization)
