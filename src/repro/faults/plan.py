"""Deterministic, seedable fault plans for the CSD fleet.

A :class:`FaultPlan` describes *what can go wrong* on which device — the
fleet-scale failure modes a rack of SmartSSDs behind a PCIe switch
actually exhibits:

* ``io_error`` — a transient NVMe read/write error (retryable);
* ``latency`` — a latency spike (an SSD garbage-collection pause or a
  congested switch port): the operation succeeds after a stall;
* ``kernel_stall`` — an FPGA kernel pass wedges and must be re-issued
  (retryable; the guard fires *before* the kernel mutates anything, so a
  retried pass runs exactly once);
* ``device_dropout`` — the device drops off the bus permanently.

A :class:`FaultInjector` evaluates the plan at every guarded operation.
Determinism is per-device: each device draws from its own RNG stream
seeded by ``(plan.seed, device_id)``, so the fault sequence a device
sees does not depend on how worker threads interleave across devices —
which is what makes the chaos property test ("transient faults are
semantically invisible") reproducible under the thread pool.

Transient faults are consumed by :meth:`FaultInjector.guard`, which
retries with exponential backoff per the plan's :class:`RetryPolicy` and
raises :class:`~repro.errors.RetryExhaustedError` when the budget runs
out.  Permanent faults raise :class:`~repro.errors.DeviceFailedError`
immediately (and forever after, for that device).  Every injected fault,
retry, backoff sleep and dropout is counted in a :class:`FaultLedger`;
backoffs and stalls are also traced as spans.  The engine owning the
ledger turns each step's delta into the ``faults_*`` metric families
and its flight record, once per step, on its own thread.
"""

from __future__ import annotations

import contextlib
import json
import random
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, Optional, Tuple

from .. import telemetry
from ..errors import (DeviceFailedError, FaultInjectionError,
                      RetryExhaustedError, TrainingError,
                      reject_unknown_keys)
from .retry import RetryPolicy

#: Fault kinds a rule may inject.
KINDS = ("io_error", "latency", "kernel_stall", "device_dropout")

#: Operation classes a rule may target ("*" matches every op).
OPS = ("read", "write", "kernel", "*")

#: Kinds that are transient (retryable); ``device_dropout`` is permanent.
TRANSIENT_KINDS = ("io_error", "latency", "kernel_stall")


@dataclass(frozen=True)
class FaultRule:
    """One fault source: what fires, where, and how often.

    ``device=None`` targets every device.  ``probability`` draws per
    guarded operation from the device's seeded stream; ``at_op`` instead
    (or additionally) gates the rule until the device's Nth guarded
    operation (1-based).  A rule with ``probability == 0`` and ``at_op``
    set fires deterministically once eligible.  ``count`` caps how many
    times the rule fires per device (``None`` = unlimited).
    """

    kind: str
    device: Optional[int] = None
    op: str = "*"
    probability: float = 0.0
    at_op: Optional[int] = None
    count: Optional[int] = None
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise TrainingError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.op not in OPS:
            raise TrainingError(
                f"unknown fault op {self.op!r}; choose from {OPS}")
        if not 0.0 <= self.probability <= 1.0:
            raise TrainingError(
                f"fault probability must be in [0, 1], got "
                f"{self.probability}")
        if self.probability == 0.0 and self.at_op is None:
            raise TrainingError(
                f"inert fault rule ({self.kind}): set probability > 0 "
                f"and/or at_op")
        if self.at_op is not None and self.at_op < 1:
            raise TrainingError("at_op is 1-based and must be >= 1")
        if self.count is not None and self.count < 1:
            raise TrainingError("count must be >= 1 (or omitted)")
        if self.latency_s < 0:
            raise TrainingError("latency_s must be non-negative")
        if self.kind == "latency" and self.latency_s == 0.0:
            raise TrainingError("latency faults need latency_s > 0")

    def matches(self, device_id: int, op: str) -> bool:
        if self.device is not None and self.device != device_id:
            return False
        return self.op == "*" or self.op == op

    def to_dict(self) -> Dict[str, object]:
        return {field.name: getattr(self, field.name)
                for field in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        reject_unknown_keys("fault-rule", data,
                            (field.name for field in fields(cls)),
                            TrainingError)
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seedable set of fault rules plus the retry policy for transients.

    Round-trips through plain dicts and JSON files (the same
    DeepSpeed-config idiom :class:`~repro.runtime.engine.TrainingConfig`
    uses), so a chaos scenario is one ``--fault-plan plan.json`` flag.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan re-seeded (the ``--chaos-seed`` override)."""
        return FaultPlan(rules=self.rules, seed=seed, retry=self.retry)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "retry": self.retry.to_dict(),
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        reject_unknown_keys("fault-plan", data, ("seed", "retry", "rules"),
                            TrainingError)
        retry = data.get("retry", {})
        if isinstance(retry, dict):
            retry = RetryPolicy.from_dict(retry)
        rules = tuple(
            rule if isinstance(rule, FaultRule) else
            FaultRule.from_dict(rule)
            for rule in data.get("rules", ()))
        return cls(rules=rules, seed=int(data.get("seed", 0)), retry=retry)

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def to_json_file(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def default_chaos(cls, seed: int = 0,
                      probability: float = 0.05) -> "FaultPlan":
        """A generic transient-chaos plan over every device.

        Used by ``--chaos-seed`` without an explicit ``--fault-plan``:
        I/O errors and kernel stalls on every device, plus occasional
        sub-millisecond latency spikes.  Transient-only, so training
        output stays bit-identical to the fault-free run.
        """
        return cls(seed=seed, rules=(
            FaultRule(kind="io_error", probability=probability),
            FaultRule(kind="kernel_stall", op="kernel",
                      probability=probability),
            FaultRule(kind="latency", probability=probability / 2,
                      latency_s=0.0002),
        ))


#: HELP text for the fault-domain metric families (Prometheus exposition).
METRIC_HELP = {
    "faults_injected_total": "Faults injected by the chaos plan, by kind.",
    "faults_retries_total": "Guarded operations retried after a "
                            "transient fault.",
    "faults_retry_exhausted_total": "Retry budgets exhausted (device "
                                    "treated as failed).",
    "faults_backoff_seconds_total": "Seconds slept in retry backoff.",
    "faults_latency_seconds_total": "Seconds stalled by injected "
                                    "latency spikes.",
    "faults_dropouts_total": "Devices permanently dropped off the bus.",
    "faults_demotions_total": "Shards demoted to the host-CPU update path.",
    "faults_degraded_steps_total": "Updates a demoted shard ran on the "
                                   "host CPU.",
    "raid_degraded_total": "RAID0 members that failed permanently.",
    "health_alerts_total": "Alerts fired: SLO rules and incidents.",
}

#: One ledger entry: a metric family and its sorted ``(label, value)``
#: pairs.
Series = Tuple[str, Tuple[Tuple[str, object], ...]]

#: Family -> the ``fault_stats()`` key that totals its series.
_TOTALS = {
    "faults_retries_total": "retries",
    "faults_retry_exhausted_total": "retries_exhausted",
    "faults_backoff_seconds_total": "backoff_seconds",
    "faults_latency_seconds_total": "latency_seconds",
    "faults_dropouts_total": "dropouts",
    "faults_demotions_total": "demotions",
    "faults_degraded_steps_total": "degraded_steps",
}


def series_key(family: str, **labels: object) -> Series:
    """The ledger key of ``family{labels}``."""
    return family, tuple(sorted(labels.items()))


def summarize(series: Dict[Series, float]) -> Dict[str, object]:
    """The totals ``engine.fault_stats()`` reports, from ledger series:
    injections by kind, then one sum per family in :data:`_TOTALS`.
    Series are summed in sorted order, so equal ledgers give equal
    totals however their entries were gathered."""
    stats: Dict[str, object] = {"injected": {},
                                **dict.fromkeys(_TOTALS.values(), 0)}
    for (family, labels), amount in sorted(series.items()):
        if family == "faults_injected_total":
            kind = dict(labels)["kind"]
            stats["injected"][kind] = stats["injected"].get(kind, 0) + amount
        elif family in _TOTALS:
            stats[_TOTALS[family]] += amount
    return stats


class FaultLedger:
    """The one record of the fault domain: a thread-safe amount per
    ``(family, labels)`` series.  The injector counts what it did into
    it (``faults_*``), the engine what it made of that (demotions,
    degraded steps, alerts); the engine writes each step's delta into
    the metrics registry, and :func:`summarize` gives the totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[Series, float] = {}

    def add(self, family: str, amount: float = 1, **labels: object) -> None:
        key = series_key(family, **labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def series(self) -> Dict[Series, float]:
        with self._lock:
            return dict(self._series)


class _DeviceFaultState:
    """Per-device injector state: RNG stream, op counter, rule fire counts."""

    def __init__(self, seed: int, device_id: int) -> None:
        self.lock = threading.Lock()
        self.rng = random.Random(f"faults:{seed}:{device_id}")
        self.op_index = 0
        self.fires: Dict[int, int] = {}
        self.dead = False
        self.dead_reason = ""


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every guarded operation.

    One injector serves a whole fleet; devices are identified by the
    integer ids the storage layer already uses (``csd0`` -> 0, RAID
    member ``ssd2`` -> 2).  It counts into ``ledger`` (an engine passes
    its own).  ``sleep`` is injectable so tests can use a fake clock for
    backoff/latency timing.
    """

    def __init__(self, plan: FaultPlan,
                 sleep: Callable[[float], None] = time.sleep,
                 ledger: Optional[FaultLedger] = None) -> None:
        self.plan = plan
        self.ledger = ledger if ledger is not None else FaultLedger()
        self._sleep = sleep
        self._devices: Dict[int, _DeviceFaultState] = {}
        self._devices_lock = threading.Lock()
        self._bypass = threading.local()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def site(self, device_id: int) -> "FaultSite":
        """A device-bound view, attachable to one block device / CSD."""
        return FaultSite(self, device_id)

    def _state(self, device_id: int) -> _DeviceFaultState:
        with self._devices_lock:
            state = self._devices.get(device_id)
            if state is None:
                state = _DeviceFaultState(self.plan.seed, device_id)
                self._devices[device_id] = state
            return state

    @contextlib.contextmanager
    def maintenance(self) -> Iterator[None]:
        """Suspend injection on the calling thread.

        Used for setup traffic (initial state placement) and for the
        engine's salvage reads during demotion — the emulated maintenance
        path that reads a wedged device's NVMe namespace directly.
        """
        previous = getattr(self._bypass, "active", False)
        self._bypass.active = True
        try:
            yield
        finally:
            self._bypass.active = previous

    def is_dead(self, device_id: int) -> bool:
        return self._state(device_id).dead

    def fail_device(self, device_id: int,
                    reason: str = "operator-declared failure") -> None:
        """Mark a device permanently failed (tests / manual chaos)."""
        state = self._state(device_id)
        with state.lock:
            if not state.dead:
                state.dead = True
                state.dead_reason = reason
                self.ledger.add("faults_dropouts_total", device=device_id)

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def check(self, device_id: int, op: str) -> None:
        """Evaluate the plan for one operation; raise or stall as planned.

        Raises :class:`FaultInjectionError` for a transient fault,
        :class:`DeviceFailedError` for (or after) a permanent dropout;
        latency spikes sleep and return.  The decision is drawn under the
        device lock; sleeping happens outside it.
        """
        if getattr(self._bypass, "active", False):
            return
        state = self._state(device_id)
        stall = 0.0
        transient: Optional[Tuple[FaultRule, int]] = None
        with state.lock:
            if state.dead:
                raise DeviceFailedError(
                    f"device {device_id} is failed ({state.dead_reason})",
                    device=device_id)
            state.op_index += 1
            for index, rule in enumerate(self.plan.rules):
                if not rule.matches(device_id, op):
                    continue
                if rule.at_op is not None and state.op_index < rule.at_op:
                    continue
                if (rule.count is not None
                        and state.fires.get(index, 0) >= rule.count):
                    continue
                if rule.probability > 0.0:
                    if state.rng.random() >= rule.probability:
                        continue
                state.fires[index] = state.fires.get(index, 0) + 1
                self.ledger.add("faults_injected_total", kind=rule.kind,
                                device=device_id, op=op)
                if rule.kind == "device_dropout":
                    state.dead = True
                    state.dead_reason = (
                        f"injected dropout at op {state.op_index}")
                    self.ledger.add("faults_dropouts_total", device=device_id)
                    raise DeviceFailedError(
                        f"device {device_id} dropped out "
                        f"(injected at op {state.op_index})",
                        device=device_id)
                if rule.kind == "latency":
                    stall += rule.latency_s
                    continue
                transient = (rule, state.op_index)
                break
        if stall > 0.0:
            self.ledger.add("faults_latency_seconds_total", stall,
                            device=device_id, op=op)
            with telemetry.trace_span("fault.latency_spike",
                                      device=device_id, op=op,
                                      seconds=stall):
                self._sleep(stall)
        if transient is not None:
            rule, op_index = transient
            raise FaultInjectionError(
                f"injected {rule.kind} on device {device_id} "
                f"op {op}#{op_index}", kind=rule.kind, device=device_id,
                op=op)

    def guard(self, device_id: int, op: str) -> None:
        """``check`` wrapped in the plan's retry-with-backoff policy.

        Transient faults are retried (each retry sleeps the next backoff
        delay and is counted); a permanent failure propagates untouched;
        exhausting the budget raises :class:`RetryExhaustedError` — the
        signal the engine treats as the device having effectively failed.
        """
        policy = self.plan.retry
        delays = policy.delays()
        attempts = 0
        while True:
            attempts += 1
            try:
                self.check(device_id, op)
                return
            except FaultInjectionError as fault:
                delay = next(delays, None)
                if delay is None:
                    self.ledger.add("faults_retry_exhausted_total",
                                    device=device_id, op=op)
                    raise RetryExhaustedError(
                        f"device {device_id} op {op}: {attempts} attempts "
                        f"exhausted; last fault: {fault}",
                        attempts=attempts, last_fault=fault) from fault
                self.ledger.add("faults_retries_total", device=device_id,
                                op=op)
                self.ledger.add("faults_backoff_seconds_total", delay,
                                device=device_id, op=op)
                with telemetry.trace_span("fault.backoff",
                                          device=device_id, op=op,
                                          attempt=attempts,
                                          seconds=delay):
                    self._sleep(delay)


class FaultSite:
    """A (injector, device) binding the storage/CSD layers hold on to."""

    __slots__ = ("injector", "device_id")

    def __init__(self, injector: FaultInjector, device_id: int) -> None:
        self.injector = injector
        self.device_id = device_id

    def check(self, op: str) -> None:
        self.injector.check(self.device_id, op)

    def guard(self, op: str) -> None:
        self.injector.guard(self.device_id, op)

    def maintenance(self):
        return self.injector.maintenance()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSite(device={self.device_id})"
