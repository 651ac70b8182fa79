"""repro.telemetry — unified observability: spans, metrics, trace export.

One substrate for every "where did the time/bytes go" question in the
repository (the question the paper's whole evaluation answers):

* :mod:`~repro.telemetry.spans` — nested wall-clock span tracing with
  thread ids, for the functional engines, the transfer handler's worker
  threads, and anything else that runs in real time;
* :mod:`~repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms with a ``snapshot()`` dict and Prometheus text exposition,
  filled once per training step from spans and ledgers;
* :mod:`~repro.telemetry.attrib` — the :class:`Timeline` every
  observer reads (built from DES channels, recorded spans or a Chrome
  trace document) and phase x resource attribution over it: per-link
  busy windows decomposed into buckets that tile the step exactly, plus
  the bottleneck verdict;
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON rendering of
  both wall-clock spans *and* a sim-time timeline, loadable in Perfetto
  as two processes in one file;
* :mod:`~repro.telemetry.profiler` — the bottleneck observatory built
  on attrib: ``repro top`` rendering, JSONL event log, and attribution
  metrics recording;
* :mod:`~repro.telemetry.critpath` — the critical-path observatory:
  per-step dependency DAGs over a timeline, CPM slack, and the what-if
  projection engine behind ``repro whatif``;
* :mod:`~repro.telemetry.flight` — the flight recorder: each engine's
  bounded deque of per-step records (spans, fault-ledger delta,
  alerts), appended at step end and rendered as one ordered
  ``smart-infinity/flightrec/v1`` JSONL snapshot, with
  once-per-incident automatic dumps;
* :mod:`~repro.telemetry.health` — per-step health signals as rolling
  EWMA windows plus the declarative SLO/anomaly rules engine
  (threshold, rate-of-change, EWMA z-score) behind ``repro health``.

Telemetry is **off by default** and guaranteed non-perturbing: every
instrumented call site goes through the module-level helpers below,
which reduce to a single global ``None`` check (and shared no-op
objects) when no session is active.  Enabling telemetry never changes
what the engines compute — only what gets recorded — and the test suite
asserts bit-identical training outputs with tracing on vs. off.

Usage::

    from repro import telemetry

    session = telemetry.enable()
    ...  # run engines: spans and metrics accumulate
    telemetry.disable()
    telemetry.write_chrome_trace("run.trace.json",
                                 spans=session.tracer.spans)
    print(session.registry.render_prometheus())

or scoped::

    with telemetry.session() as s:
        engine.train_step(tokens, labels)
    print(s.registry.snapshot())
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .attrib import (Attribution, BottleneckVerdict, COMPUTE,
                     ResourceUsage, Timeline, attribute,
                     attribute_channels, merge_intervals)
from .critpath import (CRITPATH_SCHEMA, CritPathReport, DagNode,
                       DepGraph, Intervention,
                       PathStep, Projection,
                       ProjectionValidation, add_csds, compression_ratio,
                       default_interventions, interleave, project,
                       rank_interventions,
                       render_projections, scale, write_critpath_jsonl)
from .export import (chrome_trace, record_channel_metrics,
                     write_chrome_trace)
from .flight import FLIGHT_SCHEMA, FlightRecorder, IncidentDumper
from .health import (Alert, DEFAULT_SLO_RULES, Ewma, Rule, RulesEngine,
                     SignalWindow, StepHealthMonitor,
                     evaluate_attribution, load_slo_rules, parse_rules)
from .metrics import (Counter, Gauge, Histogram, LATENCY_BUCKETS_US,
                      MetricsRegistry, SIZE_BUCKETS_BYTES)
from .profiler import (EVENTS_SCHEMA, record_attribution_metrics,
                       render_top, write_events_jsonl)
from .spans import NULL_SPAN, Span, SpanTracer

__all__ = [
    "Alert",
    "Attribution",
    "BottleneckVerdict",
    "COMPUTE",
    "CRITPATH_SCHEMA",
    "Counter",
    "CritPathReport",
    "DEFAULT_SLO_RULES",
    "DagNode",
    "DepGraph",
    "EVENTS_SCHEMA",
    "Ewma",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "IncidentDumper",
    "Intervention",
    "PathStep",
    "Projection",
    "ProjectionValidation",
    "ResourceUsage",
    "Rule",
    "RulesEngine",
    "SignalWindow",
    "StepHealthMonitor",
    "add_csds",
    "attribute",
    "attribute_channels",
    "compression_ratio",
    "default_interventions",
    "evaluate_attribution",
    "interleave",
    "load_slo_rules",
    "merge_intervals",
    "parse_rules",
    "project",
    "rank_interventions",
    "record_attribution_metrics",
    "render_projections",
    "render_top",
    "scale",
    "write_critpath_jsonl",
    "write_events_jsonl",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "MetricsRegistry",
    "NULL_SPAN",
    "SIZE_BUCKETS_BYTES",
    "Span",
    "SpanTracer",
    "TelemetrySession",
    "Timeline",
    "active",
    "chrome_trace",
    "disable",
    "enable",
    "enabled",
    "record_channel_metrics",
    "session",
    "span_begin",
    "span_end",
    "trace_span",
    "write_chrome_trace",
]


@dataclass
class TelemetrySession:
    """One enabled telemetry scope: a tracer plus a metrics registry."""

    tracer: SpanTracer = field(default_factory=SpanTracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


#: The active session, or None — the one global the hot paths check.
_active: Optional[TelemetrySession] = None


def enable(existing: Optional[TelemetrySession] = None) -> TelemetrySession:
    """Activate telemetry globally; returns the (new) active session."""
    global _active
    _active = existing if existing is not None else TelemetrySession()
    return _active


def disable() -> Optional[TelemetrySession]:
    """Deactivate telemetry; returns the session that was active."""
    global _active
    previous, _active = _active, None
    return previous


def active() -> Optional[TelemetrySession]:
    return _active


def enabled() -> bool:
    return _active is not None


@contextlib.contextmanager
def session(existing: Optional[TelemetrySession] = None
            ) -> Iterator[TelemetrySession]:
    """Scoped enable/disable, restoring whatever was active before."""
    previous = _active
    current = enable(existing)
    try:
        yield current
    finally:
        enable(previous) if previous is not None else disable()


# ----------------------------------------------------------------------
# instrumentation helpers — the only API call sites should need.
# Each is a no-op costing one global check when telemetry is off.
# ----------------------------------------------------------------------
def trace_span(name: str, **attrs: object):
    """Context manager recording a wall-clock span (no-op when off)."""
    if _active is None:
        return NULL_SPAN
    return _active.tracer.span(name, **attrs)


def span_begin(name: str, **attrs: object) -> Optional[Span]:
    """Open an explicit span; returns None when telemetry is off."""
    if _active is None:
        return None
    return _active.tracer.begin(name, **attrs)


def span_end(token: Optional[Span], **attrs: object) -> None:
    """Close a token from :func:`span_begin` (None tokens are ignored)."""
    if token is not None and _active is not None:
        _active.tracer.end(token, **attrs)

