"""Step-health monitoring and a declarative SLO/anomaly rules engine.

The flight recorder (:mod:`~repro.telemetry.flight`) remembers *what
happened* in each step; this module decides *whether it was healthy*.
Three pieces:

* :class:`Ewma` / :class:`SignalWindow` — rolling exponentially-weighted
  mean + variance per signal, O(1) state, no sample retention;
* :class:`StepHealthMonitor` — one window per named per-step signal
  (steps/s, loss finiteness, retry/backoff rates, arena hit rate,
  per-resource utilization, ...), fed once per training step;
* :class:`Rule` / :class:`RulesEngine` — declarative SLO checks loaded
  from JSON (see ``examples/slo.json``): fixed thresholds, relative
  rate-of-change against the signal's own EWMA, and EWMA z-score
  anomaly detection.  Rules fire on *entering* breach and re-arm when
  the signal recovers, so a sustained breach yields one alert (and at
  most one flight-recorder dump), not one per step.

The engines own the wiring: at every step's end they feed the monitor
from the step's record (its fault-ledger and arena deltas, its spans,
its wall time), evaluate the rules, and add the alerts to that record,
dumping it once per incident
(:meth:`repro.runtime.engine.MixedPrecisionTrainer._close_books`).
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import TelemetryError

#: Default EWMA smoothing factor: ~last 8 steps dominate the window.
DEFAULT_ALPHA = 0.25

_RULE_KINDS = ("threshold", "rate_of_change", "ewma_zscore")
_DIRECTIONS = ("above", "below", "rise", "drop")
_SEVERITIES = ("info", "warning", "critical")
_RULE_KEYS = ("name", "kind", "signal", "direction", "value",
              "min_samples", "severity", "message")


class Ewma:
    """Exponentially-weighted mean and variance (West's recurrence)."""

    __slots__ = ("alpha", "mean", "variance", "samples")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise TelemetryError(f"EWMA alpha must be in (0, 1], "
                                 f"got {alpha}")
        self.alpha = alpha
        self.mean: Optional[float] = None
        self.variance = 0.0
        self.samples = 0

    def update(self, value: float) -> None:
        self.samples += 1
        if self.mean is None:
            self.mean = value
            return
        delta = value - self.mean
        self.mean += self.alpha * delta
        self.variance = ((1.0 - self.alpha)
                         * (self.variance + self.alpha * delta * delta))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.variance > 0.0 else 0.0


class SignalWindow:
    """One signal's rolling state: last value plus its EWMA *before* it.

    ``prev_mean``/``prev_std`` snapshot the EWMA as it stood before the
    latest sample, which is what rate-of-change and z-score rules must
    compare against — a sample must not be judged against statistics it
    already polluted.
    """

    __slots__ = ("name", "last", "samples", "prev_mean", "prev_std",
                 "_ewma")

    def __init__(self, name: str, alpha: float = DEFAULT_ALPHA) -> None:
        self.name = name
        self.last = 0.0
        self.samples = 0
        self.prev_mean: Optional[float] = None
        self.prev_std = 0.0
        self._ewma = Ewma(alpha)

    def update(self, value: float) -> None:
        self.prev_mean = self._ewma.mean
        self.prev_std = self._ewma.std
        self._ewma.update(value)
        self.last = value
        self.samples += 1

    @property
    def ewma(self) -> float:
        return self._ewma.mean if self._ewma.mean is not None else 0.0

    @property
    def std(self) -> float:
        return self._ewma.std

    def zscore(self) -> float:
        """How surprising the last sample was vs the prior EWMA."""
        if self.prev_mean is None or self.prev_std <= 1e-12:
            return 0.0
        return (self.last - self.prev_mean) / self.prev_std


class StepHealthMonitor:
    """Rolling EWMA windows over named per-step health signals."""

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = alpha
        self.signals: Dict[str, SignalWindow] = {}
        self.steps_observed = 0

    def observe(self, **values: float) -> None:
        """Feed one step's signals (missing signals simply don't move)."""
        self.steps_observed += 1
        for name, value in values.items():
            window = self.signals.get(name)
            if window is None:
                window = self.signals[name] = SignalWindow(
                    name, self.alpha)
            window.update(float(value))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly view: signal -> {last, ewma, std, samples}."""
        return {
            name: {"last": window.last, "ewma": window.ewma,
                   "std": window.std, "samples": window.samples}
            for name, window in sorted(self.signals.items())
        }

    def render(self, top: Optional[int] = None) -> str:
        """Terminal table of the current windows."""
        lines = [f"  {'signal':<26} {'last':>12} {'ewma':>12} "
                 f"{'samples':>8}"]
        names = sorted(self.signals)
        if top is not None:
            names = names[:top]
        for name in names:
            window = self.signals[name]
            lines.append(f"  {name:<26} {window.last:>12.4g} "
                         f"{window.ewma:>12.4g} {window.samples:>8d}")
        if not self.signals:
            lines.append("  (no signals observed yet)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# declarative SLO rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One declarative SLO/anomaly check over a single signal.

    ``kind`` selects the predicate:

    * ``threshold`` — fire when the last value is ``above``/``below``
      ``value``;
    * ``rate_of_change`` — fire when the last value moved by more than a
      ``value`` *fraction* relative to the signal's prior EWMA, in the
      ``rise``/``drop`` direction (``0.6`` = a 60% collapse);
    * ``ewma_zscore`` — fire when the last value sits more than
      ``value`` prior-EWMA standard deviations from the prior mean, in
      the ``rise``/``drop`` direction.
    """

    name: str
    kind: str
    signal: str
    value: float
    direction: str = "above"
    min_samples: int = 1
    severity: str = "warning"
    message: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise TelemetryError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_RULE_KINDS})")
        if self.direction not in _DIRECTIONS:
            raise TelemetryError(
                f"rule {self.name!r}: unknown direction "
                f"{self.direction!r} (expected one of {_DIRECTIONS})")
        if self.kind == "threshold" and self.direction not in (
                "above", "below"):
            raise TelemetryError(
                f"rule {self.name!r}: threshold direction must be "
                f"'above' or 'below', got {self.direction!r}")
        if self.kind in ("rate_of_change", "ewma_zscore") \
                and self.direction not in ("rise", "drop"):
            raise TelemetryError(
                f"rule {self.name!r}: {self.kind} direction must be "
                f"'rise' or 'drop', got {self.direction!r}")
        if self.severity not in _SEVERITIES:
            raise TelemetryError(
                f"rule {self.name!r}: unknown severity "
                f"{self.severity!r} (expected one of {_SEVERITIES})")
        if self.min_samples < 1:
            raise TelemetryError(
                f"rule {self.name!r}: min_samples must be >= 1")

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "Rule":
        if not isinstance(raw, dict):
            raise TelemetryError(f"SLO rule must be an object, "
                                 f"got {type(raw).__name__}")
        unknown = set(raw) - set(_RULE_KEYS)
        if unknown:
            hints = []
            for key in sorted(unknown):
                match = difflib.get_close_matches(key, _RULE_KEYS, n=1)
                hints.append(f"{key!r}"
                             + (f" (did you mean {match[0]!r}?)"
                                if match else ""))
            raise TelemetryError(
                f"SLO rule has unknown key(s): {', '.join(hints)}")
        for required in ("name", "kind", "signal", "value"):
            if required not in raw:
                raise TelemetryError(
                    f"SLO rule missing required key {required!r}: {raw}")
        return cls(
            name=str(raw["name"]), kind=str(raw["kind"]),
            signal=str(raw["signal"]), value=float(raw["value"]),  # type: ignore[arg-type]
            direction=str(raw.get("direction", "above")),
            min_samples=int(raw.get("min_samples", 1)),  # type: ignore[arg-type]
            severity=str(raw.get("severity", "warning")),
            message=(str(raw["message"])
                     if raw.get("message") is not None else None))

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "kind": self.kind,
                "signal": self.signal, "value": self.value,
                "direction": self.direction,
                "min_samples": self.min_samples,
                "severity": self.severity, "message": self.message}

    def check(self, window: SignalWindow) -> Tuple[bool, str]:
        """(breached?, detail) against the signal's current window."""
        if self.kind == "threshold":
            breached = (window.last > self.value
                        if self.direction == "above"
                        else window.last < self.value)
            return breached, (f"{self.signal}={window.last:.4g} "
                              f"{self.direction} limit {self.value:g}")
        if self.kind == "rate_of_change":
            prior = window.prev_mean
            if prior is None or abs(prior) <= 1e-12:
                return False, "no prior EWMA yet"
            change = (window.last - prior) / abs(prior)
            breached = (change <= -self.value
                        if self.direction == "drop"
                        else change >= self.value)
            return breached, (f"{self.signal} moved {change:+.1%} vs "
                              f"EWMA {prior:.4g} (limit "
                              f"{self.value:.0%} {self.direction})")
        # ewma_zscore
        z = window.zscore()
        breached = (z >= self.value if self.direction == "rise"
                    else z <= -self.value)
        return breached, (f"{self.signal}={window.last:.4g} is "
                          f"z={z:+.2f} vs EWMA {window.prev_mean!r} "
                          f"(limit {self.value:g} {self.direction})")


@dataclass
class Alert:
    """One fired rule (or synthetic incident) at a point in time."""

    rule: str
    signal: str
    value: float
    severity: str
    message: str
    step: Optional[int] = None
    kind: str = "slo"  # "slo" rules vs "incident" (dropout/crash/...)

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "signal": self.signal,
                "value": self.value, "severity": self.severity,
                "message": self.message, "step": self.step,
                "kind": self.kind}

    def render(self) -> str:
        step = f" @step {self.step}" if self.step is not None else ""
        return f"[{self.severity}] {self.rule}{step}: {self.message}"


#: Rules applied when an engine gets no explicit ``slo_rules`` config.
#: Raw dicts (not Rule objects) so TrainingConfig can serialize them.
DEFAULT_SLO_RULES: Tuple[Dict[str, object], ...] = (
    {"name": "loss-not-finite", "kind": "threshold",
     "signal": "loss_finite", "direction": "below", "value": 1.0,
     "min_samples": 1, "severity": "critical",
     "message": "loss became NaN/Inf"},
    {"name": "loss-divergence", "kind": "ewma_zscore", "signal": "loss",
     "direction": "rise", "value": 6.0, "min_samples": 5,
     "severity": "critical",
     "message": "loss spiked far above its rolling mean"},
    {"name": "throughput-collapse", "kind": "rate_of_change",
     "signal": "steps_per_s", "direction": "drop", "value": 0.6,
     "min_samples": 4, "severity": "warning",
     "message": "steps/s fell >60% below its rolling mean"},
    {"name": "device-dropout", "kind": "threshold",
     "signal": "dropouts_step", "direction": "above", "value": 0.0,
     "min_samples": 1, "severity": "critical",
     "message": "a CSD dropped out this step"},
    {"name": "retry-storm", "kind": "threshold",
     "signal": "retries_step", "direction": "above", "value": 16.0,
     "min_samples": 1, "severity": "warning",
     "message": "excessive injected-fault retries in one step"},
    {"name": "arena-thrash", "kind": "threshold",
     "signal": "arena_hit_rate", "direction": "below", "value": 0.5,
     "min_samples": 3, "severity": "warning",
     "message": "buffer arenas allocating in steady state"},
)


def parse_rules(raw_rules: Iterable[Dict[str, object]]) -> List[Rule]:
    return [Rule.from_dict(raw) for raw in raw_rules]


def load_slo_rules(path: str) -> List[Rule]:
    """Load rules from a JSON file: ``{"rules": [...]}`` or a bare list."""
    with open(path) as handle:
        document = json.load(handle)
    if isinstance(document, dict):
        raw = document.get("rules")
        if not isinstance(raw, list):
            raise TelemetryError(
                f"SLO file {path!r} must contain a top-level "
                f"'rules' list")
    elif isinstance(document, list):
        raw = document
    else:
        raise TelemetryError(
            f"SLO file {path!r} must be a JSON object or list, "
            f"got {type(document).__name__}")
    return parse_rules(raw)


class RulesEngine:
    """Evaluates rules against a monitor; fires on *entering* breach."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        names = [rule.name for rule in rules]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise TelemetryError(
                f"duplicate SLO rule name(s): {sorted(duplicates)}")
        self.rules = list(rules)
        self._breached: Dict[str, bool] = {r.name: False for r in rules}

    def evaluate(self, monitor: StepHealthMonitor,
                 step: Optional[int] = None) -> List[Alert]:
        """New alerts for rules whose signal just entered breach."""
        alerts: List[Alert] = []
        for rule in self.rules:
            window = monitor.signals.get(rule.signal)
            if window is None or window.samples < rule.min_samples:
                continue
            breached, detail = rule.check(window)
            if breached and not self._breached[rule.name]:
                alerts.append(Alert(
                    rule=rule.name, signal=rule.signal,
                    value=window.last, severity=rule.severity,
                    message=rule.message or detail, step=step))
            self._breached[rule.name] = breached
        return alerts


@dataclass
class AttributionHealth:
    """Health view of a single attribution (for the ``top`` pane)."""

    monitor: StepHealthMonitor
    alerts: List[Alert] = field(default_factory=list)


def evaluate_attribution(attribution, rules: Optional[Sequence[Rule]]
                         = None,
                         saturation: float = 0.9) -> AttributionHealth:
    """SLO view of one attribution: utilization signals + alerts.

    Feeds ``util:<resource>`` signals from the attribution buckets into
    a one-shot monitor, then evaluates the caller's rules plus built-in
    per-resource saturation thresholds.  This is what backs the
    health/alerts pane in ``python -m repro top``.
    """
    monitor = StepHealthMonitor()
    signals: Dict[str, float] = {
        "step_seconds": attribution.step_seconds}
    for name, usage in attribution.usage.items():
        signals[f"util:{name}"] = usage.utilization
    monitor.observe(**signals)

    ruleset: List[Rule] = list(rules or ())
    taken = {rule.name for rule in ruleset}
    for name in sorted(attribution.usage):
        rule_name = f"saturated:{name}"
        if rule_name in taken:
            continue
        ruleset.append(Rule(
            name=rule_name, kind="threshold", signal=f"util:{name}",
            direction="above", value=saturation, severity="info",
            message=f"{name} is >= {saturation:.0%} busy — likely "
                    f"the binding resource"))
    return AttributionHealth(monitor=monitor,
                             alerts=RulesEngine(ruleset).evaluate(monitor))


__all__ = [
    "Alert",
    "AttributionHealth",
    "DEFAULT_ALPHA",
    "DEFAULT_SLO_RULES",
    "Ewma",
    "Rule",
    "RulesEngine",
    "SignalWindow",
    "StepHealthMonitor",
    "evaluate_attribution",
    "load_slo_rules",
    "parse_rules",
]
