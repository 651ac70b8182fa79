"""Bottleneck observatory: render and export attributions.

The surfaces the tooling exposes over one *observation* — anything with
``source`` ("sim" | "trace"), ``label``, ``attribution``, ``critpath``
(``None`` when the source had no per-operation records to chain) and
``meta``; :class:`repro.perf.analysis.Observation` is the one class
that builds them, from a fresh simulation or a finished Chrome trace:

* :func:`render_top` — the terminal dashboard: per-link utilization
  bars, the phase x resource ownership table, the verdict line, and
  the critical-path pane (:mod:`repro.telemetry.critpath`);
* :func:`write_events_jsonl` / :func:`record_attribution_metrics` — the
  structured exports (JSONL event log, Prometheus series).
"""

from __future__ import annotations

import json
from typing import Dict, List

from .attrib import Attribution
from .health import evaluate_attribution
from .metrics import MetricsRegistry

#: Schema marker of the JSONL attribution event log.
EVENTS_SCHEMA = "smart-infinity/attrib/v1"


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(min(1.0, max(0.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def render_top(report, top: int = 12, slo_rules=None) -> str:
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

    checked = evaluate_attribution(attribution, rules=slo_rules)
    lines.append("health/alerts (SLO rules over this attribution):")
    if checked.alerts:
        for alert in checked.alerts:
            lines.append(f"  {alert.render()}")
    else:
        lines.append("  no active alerts")
    return "\n".join(lines)


def write_events_jsonl(path: str, report) -> str:
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
