"""Bottleneck observatory: build, render, and export attributions.

Wraps :mod:`repro.telemetry.attrib` with the three surfaces the tooling
exposes:

* :func:`profile_scenario` — run one DES iteration and attribute it
  (what ``python -m repro top`` shows in sim mode);
* :func:`load_chrome_trace` — re-import a finished Chrome trace-event
  JSON (as written by ``python -m repro trace``) and attribute it,
  preferring the sim-time domain and falling back to wall-clock spans
  tagged with ``resource`` attributes;
* :func:`render_top` — the terminal dashboard: per-link utilization
  bars, the phase x resource ownership table, the verdict line, and
  the critical-path pane (:mod:`repro.telemetry.critpath`);
* :func:`write_events_jsonl` / :func:`record_attribution_metrics` — the
  structured exports (JSONL event log, Prometheus series).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import TelemetryError
from .attrib import Attribution, COMPUTE, PHASE_SPAN_NAMES, attribute
from .critpath import CritPathReport, DepGraph, observe_named
from .metrics import MetricsRegistry

#: Schema marker of the JSONL attribution event log.
EVENTS_SCHEMA = "smart-infinity/attrib/v1"


@dataclass
class ProfileReport:
    """One attributed run plus where it came from."""

    source: str  # "sim" | "trace" | "spans"
    label: str
    attribution: Attribution
    meta: Dict[str, object] = field(default_factory=dict)
    #: Critical path over the same records the attribution covered;
    #: ``None`` when the source had no per-operation records to chain
    #: (attribution can still tile the step from aggregate windows).
    critpath: Optional[CritPathReport] = None


def profile_scenario(model: str = "gpt2-4.0b", csds: int = 10,
                     method: str = "su_o_c", gpu: str = "a5000",
                     ratio: float = 0.02,
                     schedule: str = "phased") -> ProfileReport:
    """Simulate one iteration and attribute its time to channels."""
    observed = observe_named(model, csds, method, gpu, ratio,
                             schedule=schedule)
    return ProfileReport(
        source="sim",
        label=f"{model}/{method} ({csds} CSDs, {gpu})"
              + ("" if schedule == "phased" else f", {schedule}"),
        attribution=observed.attribution,
        meta={"model": model, "method": method, "csds": csds,
              "gpu": gpu, "ratio": ratio, "schedule": schedule,
              "iteration_seconds": observed.breakdown.total},
        critpath=observed.critpath)


def load_chrome_trace(path: str) -> ProfileReport:
    """Attribute a finished Chrome trace-event JSON file.

    Uses the sim-time domain (``cat: "sim"`` transfer records bucketed
    into ``cat: "sim-phase"`` windows) when present; otherwise the
    wall-clock domain (phase spans named in :data:`PHASE_SPAN_NAMES`,
    busy windows from spans carrying a ``resource`` attribute).
    """
    with open(path) as handle:
        document = json.load(handle)
    events = document.get("traceEvents", [])

    scale = 1e6  # trace timestamps are microseconds
    sim_phases: List[Tuple[str, float, float]] = []
    sim_busy: Dict[str, List[Tuple[float, float]]] = {}
    sim_bytes: Dict[str, float] = {}
    wall_phases: List[Tuple[str, float, float]] = []
    wall_busy: Dict[str, List[Tuple[float, float]]] = {}
    wall_bytes: Dict[str, float] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        start = float(event.get("ts", 0.0)) / scale
        end = start + float(event.get("dur", 0.0)) / scale
        args = event.get("args") or {}
        cat = event.get("cat")
        if cat == "sim-phase":
            sim_phases.append((event.get("name", "phase"), start, end))
        elif cat == "sim":
            channel = str(args.get("channel", event.get("name", "?")))
            sim_busy.setdefault(channel, []).append((start, end))
            sim_bytes[channel] = (sim_bytes.get(channel, 0.0)
                                  + float(args.get("nbytes", 0.0)))
        elif cat == "wall":
            resource = args.get("resource")
            if resource is not None:
                wall_busy.setdefault(str(resource), []).append(
                    (start, end))
                if args.get("nbytes") is not None:
                    wall_bytes[str(resource)] = (
                        wall_bytes.get(str(resource), 0.0)
                        + float(args["nbytes"]))
            elif event.get("name") in PHASE_SPAN_NAMES:
                wall_phases.append((event["name"], start, end))

    meta = dict(document.get("otherData") or {})
    meta["path"] = path
    if sim_phases:
        attribution = attribute(sim_phases, sim_busy,
                                bytes_by_resource=sim_bytes)
        graph = DepGraph.from_intervals(sim_busy, sim_phases)
        return ProfileReport(
            source="trace", label=path, attribution=attribution,
            meta=meta,
            critpath=graph.critical_path() if graph.nodes else None)
    if wall_phases:
        attribution = attribute(wall_phases, wall_busy,
                                bytes_by_resource=wall_bytes)
        graph = DepGraph.from_intervals(wall_busy, wall_phases)
        return ProfileReport(
            source="trace", label=path, attribution=attribution,
            meta=meta,
            critpath=graph.critical_path() if graph.nodes else None)
    raise TelemetryError(
        f"trace {path!r} has neither sim-phase windows nor wall-clock "
        f"phase spans — nothing to attribute")


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(min(1.0, max(0.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def render_top(report: ProfileReport, top: int = 12,
               slo_rules=None) -> str:
    """The ``repro top`` dashboard: bars, ownership, verdict, health.

    ``slo_rules`` (a sequence of :class:`~repro.telemetry.health.Rule`)
    replaces the built-in saturation checks in the health/alerts pane;
    the pane itself always renders so the reader knows it was evaluated.
    """
    attribution = report.attribution
    verdict = attribution.verdict()
    lines = [f"bottleneck observatory — {report.source}:{report.label}",
             f"step time {attribution.step_seconds:.3f} s"]

    usage = sorted(attribution.usage.values(),
                   key=lambda u: u.utilization, reverse=True)
    lines.append(f"  {'resource':<22} {'util':>6} {'busy s':>9} "
                 f"{'GB':>9}  occupancy")
    for entry in usage[:top]:
        lines.append(
            f"  {entry.name:<22} {entry.utilization:>6.1%} "
            f"{entry.busy_seconds:>9.3f} "
            f"{entry.bytes_total / 1e9:>9.2f}  "
            f"{_bar(entry.utilization)}")
    if len(usage) > top:
        lines.append(f"  ... {len(usage) - top} quieter resource(s) "
                     f"omitted")

    lines.append("phase x resource ownership (buckets tile the step):")
    lines.append(f"  {'phase':<16} {'resource':<22} {'s':>9} {'%':>7}")
    fractions = attribution.fractions()
    for phase in attribution.phases:
        owned = [(resource, seconds)
                 for (p, resource), seconds in attribution.buckets.items()
                 if p == phase]
        for resource, seconds in sorted(owned, key=lambda kv: -kv[1]):
            share = fractions[(phase, resource)]
            lines.append(f"  {phase:<16} {resource:<22} "
                         f"{seconds:>9.3f} {share:>7.1%}")
    lines.append(verdict.render())

    if report.critpath is not None:
        lines.append(report.critpath.render())
    else:
        lines.append("critical path: no dependency data (source has no "
                     "per-operation records to chain)")

    from .health import evaluate_attribution
    checked = evaluate_attribution(attribution, rules=slo_rules)
    lines.append("health/alerts (SLO rules over this attribution):")
    if checked.alerts:
        for alert in checked.alerts:
            lines.append(f"  {alert.render()}")
    else:
        lines.append("  no active alerts")
    return "\n".join(lines)


def write_events_jsonl(path: str, report: ProfileReport) -> str:
    """Structured JSONL event log of one attribution; returns ``path``."""
    attribution = report.attribution
    verdict = attribution.verdict()
    records: List[Dict[str, object]] = [{
        "type": "meta", "schema": EVENTS_SCHEMA,
        "source": report.source, "label": report.label,
        "step_seconds": attribution.step_seconds,
        "phases": attribution.phases, **report.meta,
    }]
    for name in sorted(attribution.usage):
        entry = attribution.usage[name]
        records.append({
            "type": "utilization", "resource": entry.name,
            "busy_seconds": entry.busy_seconds,
            "utilization": entry.utilization,
            "bytes_total": entry.bytes_total,
            "capacity": entry.capacity,
        })
    fractions = attribution.fractions()
    for (phase, resource), seconds in sorted(attribution.buckets.items()):
        records.append({
            "type": "bucket", "phase": phase, "resource": resource,
            "seconds": seconds, "fraction": fractions[(phase, resource)],
        })
    records.append({
        "type": "verdict", "resource": verdict.resource,
        "utilization": verdict.utilization,
        "owned_seconds": verdict.owned_seconds,
        "owned_fraction": verdict.owned_fraction,
        "rendered": verdict.render(),
    })
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def record_attribution_metrics(registry: MetricsRegistry,
                               attribution: Attribution,
                               **labels: object) -> None:
    """Mirror an attribution into Prometheus-style series.

    Extends the exposition the DES channel bridge already emits with
    the ownership decomposition, so one scrape answers both "how busy"
    and "who owns the step".
    """
    registry.describe("attrib_step_seconds",
                      "Attributed step (iteration) time in seconds.")
    registry.describe("attrib_bucket_seconds",
                      "Owned seconds per phase x resource bucket.")
    registry.describe("attrib_bucket_fraction",
                      "Owned fraction of the step per bucket.")
    registry.describe("attrib_resource_utilization",
                      "Busy fraction of the step per resource.")
    registry.describe("attrib_bottleneck_owned_fraction",
                      "Fraction of the step owned by the bottleneck "
                      "resource.")
    registry.gauge("attrib_step_seconds", **labels).set(
        attribution.step_seconds)
    fractions = attribution.fractions()
    for (phase, resource), seconds in attribution.buckets.items():
        registry.gauge("attrib_bucket_seconds", phase=phase,
                       resource=resource, **labels).set(seconds)
        registry.gauge("attrib_bucket_fraction", phase=phase,
                       resource=resource, **labels).set(
            fractions[(phase, resource)])
    for name, entry in attribution.usage.items():
        registry.gauge("attrib_resource_utilization", resource=name,
                       **labels).set(entry.utilization)
    verdict = attribution.verdict()
    registry.gauge("attrib_bottleneck_owned_fraction",
                   resource=verdict.resource, **labels).set(
        verdict.owned_fraction)
