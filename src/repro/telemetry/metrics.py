"""Counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the telemetry layer: trace spans say
*when* things happened, instruments say *how often* and *how large*.
Every instrument is identified by a metric name plus a label set (e.g.
``storage_read_bytes_total{device="csd0"}``), mirroring the Prometheus
data model, and the registry renders both a plain ``snapshot()`` dict
for tests and a Prometheus-style text exposition for scraping.

No hot path writes here: a training engine folds each step's spans and
ledgers in on its own thread at the step's end — faults, alerts and
demotions included, from its fault ledger.

Instruments are thread-safe (one coarse registry lock) and intentionally
dependency-free: fixed bucket bounds instead of dynamic quantile sketches
keep ``observe()`` O(#buckets) and allocation-free.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import TelemetryError

#: Default latency buckets in microseconds: 10us .. 1s, roughly 1-2-5.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0, 250_000.0, 1_000_000.0)

#: Default throughput buckets in bytes: 1 KiB .. 1 GiB, powers of ~8.
SIZE_BUCKETS_BYTES: Tuple[float, ...] = (
    1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28, 1 << 30)

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format.

    Label values escape backslash, double-quote, and newline; anything
    else passes through verbatim.
    """
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP text escapes only backslash and newline (not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"'
                    for key, value in labels)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing count (events, bytes, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, "
                                 f"got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value that can move both ways; tracks its peak."""

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = max(self.peak, value)


class Histogram:
    """Fixed-bucket histogram with cumulative counts, sum, and count.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in the implicit +Inf bucket.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Iterable[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise TelemetryError("histogram needs at least one bucket")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise TelemetryError(
                f"histogram bounds must be strictly increasing: "
                f"{self.bounds}")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (ending at +Inf)."""
        totals, running = [], 0
        for count in self.bucket_counts:
            running += count
            totals.append(running)
        return totals

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named, labelled instruments with get-or-create access."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach HELP text to a metric family (any time, idempotent)."""
        with self._lock:
            self._help[name] = help_text

    def _claim(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {seen}, "
                f"requested {kind}")

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labelset(labels))
        with self._lock:
            self._claim(name, "counter")
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labelset(labels))
        with self._lock:
            self._claim(name, "gauge")
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels: object) -> Histogram:
        key = (name, _labelset(labels))
        with self._lock:
            self._claim(name, "histogram")
            instrument = self._histograms.get(key)
            if instrument is None:
                bounds = tuple(buckets) if buckets is not None \
                    else LATENCY_BUCKETS_US
                instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view: ``name{labels}`` -> instrument summary."""
        result: Dict[str, Dict] = {}
        with self._lock:
            for (name, labels), counter in self._counters.items():
                result[name + _render_labels(labels)] = {
                    "type": "counter", "value": counter.value}
            for (name, labels), gauge in self._gauges.items():
                result[name + _render_labels(labels)] = {
                    "type": "gauge", "value": gauge.value,
                    "peak": gauge.peak}
            for (name, labels), hist in self._histograms.items():
                result[name + _render_labels(labels)] = {
                    "type": "histogram", "count": hist.count,
                    "sum": hist.sum, "mean": hist.mean(),
                    "buckets": dict(zip(
                        [*hist.bounds, float("inf")], hist.bucket_counts)),
                }
        return result

    def render_prometheus(self) -> str:
        """Prometheus text exposition (counters, gauges, histograms).

        Every family gets ``# HELP`` and ``# TYPE`` header lines (the
        HELP text defaults to a generated description unless
        :meth:`describe` set one), and label values are escaped per the
        exposition format.
        """
        lines: List[str] = []
        typed: set = set()

        def _type_line(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                help_text = self._help.get(
                    name, f"repro {kind} {name} (no description)")
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {kind}")

        with self._lock:
            for (name, labels), counter in sorted(self._counters.items()):
                _type_line(name, "counter")
                lines.append(
                    f"{name}{_render_labels(labels)} {counter.value:g}")
            for (name, labels), gauge in sorted(self._gauges.items()):
                _type_line(name, "gauge")
                lines.append(
                    f"{name}{_render_labels(labels)} {gauge.value:g}")
                peak_labels = _labelset(dict(labels, stat="peak"))
                lines.append(
                    f"{name}{_render_labels(peak_labels)} {gauge.peak:g}")
            for (name, labels), hist in sorted(self._histograms.items()):
                _type_line(name, "histogram")
                cumulative = hist.cumulative()
                edges = [f"{bound:g}" for bound in hist.bounds] + ["+Inf"]
                for edge, total in zip(edges, cumulative):
                    le_labels = _labelset(dict(labels, le=edge))
                    lines.append(
                        f"{name}_bucket{_render_labels(le_labels)} {total}")
                rendered = _render_labels(labels)
                lines.append(f"{name}_sum{rendered} {hist.sum:g}")
                lines.append(f"{name}_count{rendered} {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")
