"""Storage-offloaded training engines: shared base + the CPU baseline.

The baseline engine reproduces the ZeRO-Infinity dataflow of Fig. 1:

* FP16 working parameters in the "GPU" (the numpy module),
* FP32 optimizer states (master params, moments) on storage,
* gradients offloaded to storage during backward,
* block-wise CPU update: upload gradients + optimizer states, update with
  the host optimizer, offload the states back, refresh the FP16 copy —
  two blocks deep, as ZeRO-Infinity overlaps NVMe with the CPU step: a
  ``raid0-io`` thread writes back block k-1 and loads block k+1 while
  the stepping thread updates block k.

Every byte crossing the host<->storage path lands in a device's own I/O
ledger, so the Table I accounting can be asserted against what the
devices did, and the engines share one training step
(:meth:`MixedPrecisionTrainer._step_impl`: mixed-precision
forward/backward, loss-scale verdict, phase order under either
schedule), supplying only its offload and update hooks — so
baseline-vs-Smart-Infinity accuracy comparisons differ *only* in where
the update runs.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import queue
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import TrainingError, reject_unknown_keys
from ..faults import FaultInjector, FaultLedger, FaultPlan
from ..faults.plan import METRIC_HELP, Series, series_key, summarize
from ..memory import ArenaStats, aggregate_arena_stats, live_arenas
from ..telemetry.flight import FlightRecorder, IncidentDumper, StepRecord
from ..telemetry.health import (Alert, DEFAULT_SLO_RULES, RulesEngine,
                                StepHealthMonitor, parse_rules)
from ..nn.modules import Module
from ..nn.offload import ActivationSpillStore, activation_spill_scope
from ..nn.precision import LossScaler, clip_gradients
from ..optim import make_optimizer
from ..optim.base import scratch_buffers
from ..storage.blockdev import FileBlockDevice, IOCounters
from ..storage.raid0 import RAID0Volume
from ..storage.tensor_store import TensorStore
from .parallel import resolve_backend, resolve_workers
from .partition import FlatParameterSpace
from .stats import IterationTraffic, TrafficMeter

#: loss_fn(model, *batch) -> scalar Tensor
LossFn = Callable[..., "object"]

#: Version stamped into ``TrainingConfig.to_dict()`` output.  Bump it
#: when a field changes meaning (not when fields are merely added —
#: unknown-key rejection already catches those); loading a *newer*
#: version warns but proceeds, so configs stay forward-portable.
CONFIG_SCHEMA_VERSION = 1


@dataclass
class TrainingConfig:
    """Knobs shared by the baseline and Smart-Infinity engines."""

    optimizer: str = "adam"
    optimizer_kwargs: Dict = field(default_factory=dict)
    grad_clip: float = 1.0
    initial_loss_scale: float = 2.0 ** 16
    #: Elements per update subgroup (the paper's accelerator-DRAM-sized D).
    subgroup_elements: int = 1 << 16
    #: SmartComp volume ratio (None disables compression).
    compression_ratio: Optional[float] = None
    error_feedback: bool = True
    #: SU+O (optimized transfer handler) vs plain SU (naive loop).
    use_transfer_handler: bool = True
    #: Model-compression extension (§VIII-B): the CSD quantizes updated
    #: masters to int8 before the upstream transfer, and the host
    #: dequantizes for the STE forward pass.
    quantized_upstream: bool = False
    #: Per-group size of the int8 quantization scales.
    quantization_group: int = 4096
    #: Magnitude-pruning sparsity applied to the FP16 working copy
    #: (None disables pruning; masters stay dense).
    pruning_sparsity: Optional[float] = None
    #: Worker threads fanning per-CSD offload/update work (Fig. 11's
    #: one-update-per-device concurrency).  None/0 = auto, i.e.
    #: ``min(num_csds, cpu_count)``; 1 forces the sequential loop;
    #: parallel execution is bit-identical to sequential (tested).
    parallel_csds: Optional[int] = None
    #: Execution backend for that fan-out: ``thread`` (shared-address-
    #: space pool, GIL-bound), ``process`` (per-CSD worker processes with
    #: shared-memory shard channels — true multi-core scaling), or
    #: ``auto`` (process exactly when >1 worker and >1 usable CPU).
    #: Both backends produce bit-identical training output (tested).
    parallel_backend: str = "thread"
    #: Fleet geometry (folded out of the old per-engine ctor kwargs so
    #: :func:`repro.api.create_engine` needs only a mode + config):
    #: number of SmartSSDs for the smart engine ...
    num_csds: int = 1
    #: ... RAID0 member count + stripe chunk for the baseline engine ...
    raid_members: int = 1
    raid_chunk_bytes: int = 1 << 20
    #: ... and the host-DRAM budget of the host-offload engine (None =
    #: unchecked).
    host_memory_bytes: Optional[int] = None
    #: Step schedule: ``phased`` (forward -> backward -> offload barrier
    #: -> update barrier) or ``interleaved`` (no barrier between one
    #: block/device's gradient offload and its update; the chains start
    #: once backprop has finished, not during it).  Bit-identical
    #: results either way (tested, including under chaos).
    schedule: str = "phased"
    #: Boundary-activation handling for checkpointed training:
    #: ``recompute`` keeps boundaries in host memory (classic activation
    #: checkpointing), ``spill`` writes them to an SSD-backed spill
    #: device during forward and async-prefetches them ahead of backward
    #: (:mod:`repro.nn.offload`; needs an engine with a storage directory).
    activation_offload: str = "recompute"
    #: Fault-injection plan for the storage/CSD fleet (None = no faults).
    #: See :mod:`repro.faults` for the failure model.
    fault_plan: Optional[FaultPlan] = None
    #: Always-on flight recorder (:mod:`repro.telemetry.flight`): the
    #: engine's record of its last steps.
    flight_recorder: bool = True
    #: Directory for automatic incident dumps (flightrec/v1 JSONL).
    #: None disables *file* dumps — alerts still fire and land in the
    #: record — so library/test use never writes files unasked.
    flight_dump_dir: Optional[str] = None
    #: Declarative SLO/anomaly rules as raw dicts (the shape of
    #: ``examples/slo.json``); None applies
    #: :data:`repro.telemetry.health.DEFAULT_SLO_RULES`.
    slo_rules: Optional[List[Dict]] = None

    # ------------------------------------------------------------------
    # DeepSpeed-style config files (§VI: "enabled by simply specifying an
    # option"): the whole engine configuration round-trips through JSON.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-dict form, suitable for ``json.dump``."""
        data = dict(self.__dict__)
        data["schema_version"] = CONFIG_SCHEMA_VERSION
        if self.fault_plan is not None:
            data["fault_plan"] = self.fault_plan.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "TrainingConfig":
        """Build a config from a dict, rejecting unknown keys.

        Unknown keys fail loudly with close-match suggestions, so a typo
        like ``compression_ration`` points at ``compression_ratio``
        instead of silently training with defaults.  A ``schema_version``
        newer than :data:`CONFIG_SCHEMA_VERSION` warns and proceeds
        best-effort (forward compatibility); same-or-older loads
        silently.
        """
        data = dict(data)
        version = data.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool) \
                or version < 1:
            raise TrainingError(
                f"config schema_version must be a positive integer, "
                f"got {version!r}")
        if version > CONFIG_SCHEMA_VERSION:
            import warnings
            warnings.warn(
                f"config has schema_version {version}, newer than this "
                f"build's {CONFIG_SCHEMA_VERSION}; loading best-effort "
                "— unknown fields will be rejected, changed semantics "
                "will not be detected", FutureWarning, stacklevel=2)
        reject_unknown_keys("config", data,
                            (field.name for field in fields(cls)),
                            TrainingError)
        plan = data.get("fault_plan")
        if isinstance(plan, dict):
            data["fault_plan"] = FaultPlan.from_dict(plan)
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "TrainingConfig":
        """Load a config from a JSON file (the DeepSpeed-config idiom)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def to_json_file(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)


def make_fault_injector(config: TrainingConfig,
                        ledger: Optional[FaultLedger] = None
                        ) -> Optional["FaultInjector"]:
    """The injector counting into ``ledger`` (None without a plan)."""
    if config.fault_plan is None:
        return None
    return FaultInjector(config.fault_plan, ledger=ledger)


def fault_bypass(faults: Optional[FaultInjector]):
    """Context manager suspending injection (no-op without an injector).

    Engines wrap construction-time placement and demotion-time salvage
    reads in this: setup traffic and the emulated maintenance path are
    outside the fault domain.
    """
    if faults is None:
        return contextlib.nullcontext()
    return faults.maintenance()


#: Execution schedules for the optimizer pipeline.
SCHEDULES = ("phased", "interleaved")

#: Boundary-activation handling during checkpointed training.
ACTIVATION_MODES = ("recompute", "spill")


def resolve_schedule(config) -> str:
    """Validate ``config.schedule`` and return the concrete schedule."""
    schedule = getattr(config, "schedule", "phased")
    if schedule not in SCHEDULES:
        raise TrainingError(
            f"unknown schedule {schedule!r}; expected one of "
            f"{', '.join(SCHEDULES)}")
    return schedule


def resolve_activation_offload(config, has_spill_device: bool = True) -> str:
    """Validate ``config.activation_offload`` (``recompute`` | ``spill``).

    ``spill`` on an engine without a storage directory is a
    configuration error, not a silent fallback.
    """
    mode = getattr(config, "activation_offload", "recompute")
    if mode not in ACTIVATION_MODES:
        raise TrainingError(
            f"unknown activation_offload mode {mode!r}; expected one of "
            f"{', '.join(ACTIVATION_MODES)}")
    if mode == "spill" and not has_spill_device:
        raise TrainingError(
            "activation_offload='spill' needs a storage-backed engine "
            "(baseline or smart); the host-offload engine has no spill "
            "device")
    return mode


def activation_scope(spill_store: Optional[ActivationSpillStore]):
    """Context activating a spill store for checkpointed forwards.

    ``None`` yields a no-op context, so the trainer can wrap every
    forward/backward unconditionally.
    """
    if spill_store is None:
        return contextlib.nullcontext()
    return activation_spill_scope(spill_store)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one training iteration."""

    step: int
    loss: float
    grad_norm: float
    overflow: bool
    traffic: IterationTraffic


class MixedPrecisionTrainer:
    """The training step, written once: mixed-precision forward/backward
    with loss scaling, then the engine's gradient-offload and update
    hooks in the order the schedule asks for.

    An engine supplies :meth:`_offload`, :meth:`_update` and — when its
    shards or blocks are independent — :meth:`_offload_update`; it never
    opens a phase span, touches the scaler or builds a
    :class:`StepResult` itself.
    """

    #: ``engine`` attribute of the ``iteration`` span.
    engine_name = "trainer"

    def __init__(self, model: Module, loss_fn: LossFn,
                 config: TrainingConfig, storage_dir: Optional[str] = None,
                 devices: int = 1) -> None:
        # Every mode knob is resolved here, before anything is acquired,
        # so a typo fails the same way on every engine — including the
        # ones whose update loop is sequential whatever the knob says.
        self.schedule = resolve_schedule(config)
        self.activation_offload = resolve_activation_offload(
            config, storage_dir is not None)
        self.workers = resolve_workers(config.parallel_csds, devices)
        self.backend = resolve_backend(config.parallel_backend,
                                       self.workers)

        self.model = model
        self.loss_fn = loss_fn
        self.config = config
        self.space = FlatParameterSpace(model)
        self.scaler = LossScaler(scale=config.initial_loss_scale)
        self.optimizer = make_optimizer(config.optimizer,
                                        **config.optimizer_kwargs)
        self.meter = TrafficMeter()
        self.step_count = 0
        self.loss_history: List[float] = []
        self._lr_schedule: Optional[Callable[[int], float]] = None
        #: Sum of the micro-batches' gradients; allocated by the first
        #: step that has more than one.
        self._accumulated: Optional[np.ndarray] = None

        # Step-health monitoring + SLO rules (repro.telemetry.health):
        # fed and evaluated once per step, by _close_books.
        self.health = StepHealthMonitor()
        raw_rules = (config.slo_rules if config.slo_rules is not None
                     else list(DEFAULT_SLO_RULES))
        self.rules = RulesEngine(parse_rules(raw_rules))
        self.alerts: List[Alert] = []
        #: Incident alerts raised during the step, ``(alert, key,
        #: attrs)``: a demotion may report from a worker thread, so they
        #: wait for the step's end.
        self._incidents: List[Tuple[Alert, str, Dict[str, object]]] = []
        #: Faults, demotions, degraded steps and alerts, as they happen
        #: (the engine's injector counts into it too).
        self.fault_ledger = FaultLedger()

        # SSD-backed boundary activations (repro.nn.offload).
        self._spill: Optional[ActivationSpillStore] = None
        #: The I/O ledger of every block device the engine drives, by
        #: device name (the baseline adds its RAID members; the smart
        #: engine's CSDs come from its coordinator, in ``_io_totals``).
        self._block_io: Dict[str, IOCounters] = {}
        if self.activation_offload == "spill":
            self._spill = ActivationSpillStore(storage_dir)
            self._block_io[self._spill.device.name] = \
                self._spill.device.counters

        #: The flight recorder: this engine's last step records.
        self.flight: Optional[FlightRecorder] = None
        self._dumper: Optional[IncidentDumper] = None
        if config.flight_recorder:
            self.flight = FlightRecorder()
            if config.flight_dump_dir is not None:
                self._dumper = IncidentDumper(self.flight,
                                              config.flight_dump_dir)
        self._arena_snapshot = aggregate_arena_stats()
        #: ``_block_io`` byte totals and ``fault_series()`` as of the
        #: previous step's end.
        self._io_snapshot: Dict[str, Tuple[int, int]] = {}
        self._fault_snapshot: Dict[Series, float] = {}
        #: _cut_spans: the ``seq`` of the last span observed.
        self._span_cursor = 0
        self._closed = False

    @property
    def num_params(self) -> int:
        return self.space.total_elements

    def __enter__(self) -> "MixedPrecisionTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release every device and thread.  Idempotent."""
        self._shutdown(abandon=False)

    def _shutdown(self, abandon: bool) -> None:
        """:meth:`close`; with ``abandon``, the unwinding of a failed
        constructor, whose caller never gets a handle to close."""
        if self._closed:
            return
        self._closed = True
        if self._spill is not None:
            self._spill.close()
        self._release(abandon)

    def _release(self, abandon: bool) -> None:
        """Engine hook: release storage and workers (on partial state
        too, when ``abandon``)."""

    def fault_stats(self) -> Dict[str, object]:
        """Cumulative fault/resilience accounting for this engine.

        Always returns the full shape (zeros without a fault plan) so
        reports and tests can read it unconditionally.
        """
        return summarize(self.fault_series())

    def fault_series(self) -> Dict[Series, float]:
        """Every fault-domain series of this engine: its fault ledger's,
        plus those kept where the fault happened (worker processes, a
        RAID volume)."""
        return self.fault_ledger.series()

    def arena_stats(self) -> ArenaStats:
        """Process-wide scratch-arena accounting (see :mod:`repro.memory`).

        Arenas are per-worker-thread and shared by every engine in the
        process, so this is a process aggregate, not a per-engine ledger;
        its ``allocations`` counter going flat across steps is the
        zero-steady-state-allocation invariant.
        """
        return aggregate_arena_stats()

    def host_resident(self) -> Dict[str, int]:
        """Host-resident bytes this engine holds right now, by owner:
        the measured side of :func:`~repro.runtime.stats.
        expected_host_resident`, which it equals between the steps of a
        warmed-up, fault-free engine (tested).  ``arenas`` is every live
        arena's pooled and checked-out bytes, so other engines in the
        process count."""
        accumulated = self._accumulated
        arenas = aggregate_arena_stats()
        return {
            **self.space.resident(),
            "grad_accumulator": (0 if accumulated is None
                                 else accumulated.nbytes),
            **self._resident(),
            "arenas": arenas.pooled_bytes + arenas.bytes_in_use,
        }

    def _resident(self) -> Dict[str, int]:
        """Engine hook: ``ef_residual`` / ``compressed_stream`` /
        ``handler_dram`` of :meth:`host_resident`."""
        raise TrainingError(
            f"the {self.engine_name} engine has no host-memory closed "
            "form yet (ROADMAP item 5)")

    def _io_totals(self) -> Dict[str, Tuple[int, int]]:
        return {name: (counters.bytes_read, counters.bytes_written)
                for name, counters in self._block_io.items()}

    def _traffic_totals(self) -> IterationTraffic:
        """Engine hook: the cumulative host / internal link bytes of the
        engine's device ledgers (none without storage)."""
        return IterationTraffic()

    # ------------------------------------------------------------------
    # step driver: wall-clock timing, health signals, incident capture
    # ------------------------------------------------------------------
    def train_step(self, *batch: np.ndarray) -> "StepResult":
        """One full iteration (forward, backward + offload, update)."""
        return self._run_step([batch])

    def train_step_accumulated(
            self, batches: Sequence[Sequence[np.ndarray]]) -> "StepResult":
        """One iteration with gradient accumulation over micro-batches."""
        return self._run_step([tuple(batch) for batch in batches])

    def _run_step(self, batches: Sequence[Sequence[np.ndarray]]
                  ) -> "StepResult":
        """Run :meth:`_step_impl`, then close its books.

        A crash (any exception escaping the step) is an incident: its
        alert joins the step's record and dump before the exception is
        re-raised, so the black box shows what was in flight, and the
        fault that killed the step reaches the registry.
        """
        begin = time.perf_counter()
        try:
            result = self._step_impl(batches)
        except BaseException as exc:
            error = f"{type(exc).__name__}: {exc}"
            self._raise_incident(
                "engine_exception",
                key=f"engine_exception:{type(exc).__name__}",
                message=(f"unhandled {type(exc).__name__} escaped the "
                         f"train step: {exc}"),
                error=error)
            self._close_books(None, 0.0, error)
            raise
        self._close_books(result, time.perf_counter() - begin)
        return result

    def _raise_incident(self, kind: str, key: str, message: str,
                        severity: str = "critical",
                        **attrs: object) -> None:
        """A synthetic (non-rule) alert: dropout, crash, retry budget.
        Any thread may raise one; it is recorded, counted and dumped at
        the step's end, on the thread that runs the step."""
        self._incidents.append((
            Alert(rule=kind, signal=kind, value=1.0, severity=severity,
                  message=message, step=self.step_count, kind="incident"),
            key, attrs))

    def _cut_spans(self) -> List[telemetry.Span]:
        """The active session's spans recorded since the last cut."""
        session = telemetry.active()
        spans = ([] if session is None
                 else session.tracer.since(self._span_cursor))
        if spans:
            self._span_cursor = spans[-1].seq
        return spans

    def _close_books(self, result: Optional["StepResult"], wall: float,
                     error: Optional[str] = None) -> None:
        """End a step — one that raised too — on the thread that ran it.

        Takes the step's fault-ledger and arena deltas into its
        :class:`StepRecord`; for a finished step, feeds the health
        monitor from that record and evaluates the SLO rules; appends
        the record to the flight recorder, then raises the step's alerts
        into it one by one (each incident dump ends at its alert); and
        under a telemetry session writes the step into the registry —
        the one place spans and ledgers become metrics.
        """
        session = telemetry.active()
        spans = self._cut_spans()
        io, io_prev = self._io_totals(), self._io_snapshot
        faults, faults_prev = self.fault_series(), self._fault_snapshot
        arena, arena_prev = aggregate_arena_stats(), self._arena_snapshot
        self._arena_snapshot = arena
        record = StepRecord(
            step=self.step_count,
            loss=None if result is None else result.loss,
            overflow=result is not None and result.overflow, error=error,
            faults=_fault_delta(faults, faults_prev),
            arena_allocs=arena.allocations - arena_prev.allocations,
            spans=spans, span_epoch=(0.0 if session is None
                                     else session.tracer.epoch),
            ts=time.perf_counter())
        alerts, self._incidents = self._incidents, []
        if result is not None:
            self._observe_step(record, result, wall, faults,
                               arena.checkouts - arena_prev.checkouts)
            alerts += [(alert, f"rule:{alert.rule}", {}) for alert in
                       self.rules.evaluate(self.health, step=result.step)]
        if self.flight is not None:
            self.flight.append(record)
        for alert, key, attrs in alerts:
            self._raise_alert(record, alert, key, attrs)
        self._io_snapshot, self._fault_snapshot = io, self.fault_series()
        if session is not None:
            _record_step_metrics(session.registry, spans, io, io_prev,
                                 self._fault_snapshot, faults_prev)

    def _raise_alert(self, record: StepRecord, alert: Alert, key: str,
                     attrs: Dict[str, object]) -> None:
        """Count ``alert``, add it to the step's record, and dump the
        record once per incident ``key``."""
        self.alerts.append(alert)
        self.fault_ledger.add("health_alerts_total", rule=alert.rule,
                              severity=alert.severity)
        incident = alert.kind == "incident"
        record.alerts.append((alert.rule, {
            "severity": alert.severity, "message": alert.message,
            "step": alert.step,
            **({"incident": key, **attrs} if incident
               else {"signal": alert.signal, "value": alert.value})}))
        if self._dumper is not None:
            self._dumper.dump_once(
                key, reason=alert.rule if incident else "slo-breach",
                step=self.step_count,
                **({} if incident else {"rule": alert.rule}))

    def _observe_step(self, record: StepRecord, result: "StepResult",
                      wall: float, faults: Dict[Series, float],
                      checkouts: int) -> None:
        """Feed one finished step's record into the health monitor."""
        step = summarize(dict(record.faults))
        signals: Dict[str, float] = {
            "steps_per_s": 1.0 / wall if wall > 0.0 else 0.0,
            "step_seconds": wall,
            "loss": result.loss,
            "loss_finite": 1.0 if math.isfinite(result.loss) else 0.0,
            "grad_norm": result.grad_norm,
            "overflow_step": 1.0 if result.overflow else 0.0,
            "retries_step": float(step["retries"]),
            "backoff_s_step": float(step["backoff_seconds"]),
            "dropouts_step": float(step["dropouts"]),
            "degraded_steps": float(summarize(faults)["degraded_steps"]),
            "arena_hit_rate": (1.0 - record.arena_allocs / checkouts
                               if checkouts else 1.0),
        }
        signals.update(self._utilization_signals(record.spans))
        self.health.observe(**signals)

    def _utilization_signals(self, spans: List[telemetry.Span]
                             ) -> Dict[str, float]:
        """Per-resource ``util:*`` signals from this step's spans (the
        ones recorded since the previous observation)."""
        if not spans:
            return {}
        try:
            attribution = telemetry.Timeline.from_spans(spans).attribution()
        except Exception:
            # Health sampling must never kill training; a window that
            # does not attribute (no phase spans, odd nesting) is
            # simply skipped.
            return {}
        return {f"util:{name}": usage.utilization
                for name, usage in attribution.usage.items()}

    def health_summary(self) -> Dict[str, object]:
        """Signals, alerts, and flight-recorder state in one dict."""
        return {
            "signals": self.health.snapshot(),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "flight": self.flight.stats() if self.flight else None,
            "dumps": self.flight_dumps(),
            "dump_errors": ([] if self._dumper is None
                            else list(self._dumper.errors)),
        }

    def flight_dumps(self) -> List[str]:
        """Paths of the automatic incident dumps written so far."""
        return [] if self._dumper is None else list(self._dumper.paths)

    # ------------------------------------------------------------------
    # learning-rate scheduling
    # ------------------------------------------------------------------
    def set_lr_schedule(self, schedule: Callable[[int], float]) -> None:
        """Drive ``optimizer.lr`` from ``schedule(step)`` (1-based steps).

        Every engine applies the schedule identically, so scheduled runs
        keep the cross-engine bit-identity guarantees.
        """
        self._lr_schedule = schedule

    def _apply_lr_schedule(self) -> None:
        if self._lr_schedule is not None:
            self.optimizer.lr = float(self._lr_schedule(self.step_count))

    # ------------------------------------------------------------------
    # the training step (Fig. 4b / 6b)
    # ------------------------------------------------------------------
    def _step_impl(self, batches: Sequence[Sequence[np.ndarray]]
                   ) -> StepResult:
        """Forward+backward -> gradient offload -> loss-scale verdict ->
        update, for every engine and both schedules.

        ``phased`` puts a barrier between the two hooks: every gradient
        is offloaded before any update starts.  ``interleaved`` hands
        the verdict to :meth:`_offload_update`, which runs each shard's
        or block's offload straight into its update — after backprop
        has finished, so the only thing removed is that barrier.  Per
        device the operation order is the same either way, which keeps
        results and fault streams bit-identical.
        """
        fused = self.schedule == "interleaved"
        with telemetry.trace_span("iteration", engine=self.engine_name,
                                  schedule=self.schedule,
                                  backend=self.backend,
                                  workers=self.workers) as span:
            self.meter.begin_iteration(self._traffic_totals())
            with telemetry.trace_span("forward_backward"):
                loss, flat_grads, norm, overflow = \
                    self.forward_backward_many(batches)
            if not fused:
                # Gradients go out before the overflow verdict is acted
                # on (the real engine streams them out during backward).
                with telemetry.trace_span("grad_offload"):
                    self._offload(flat_grads, overflow)
            proceed = self.scaler.update(overflow)
            if proceed:
                self.step_count += 1
                self._apply_lr_schedule()
            if fused:
                with telemetry.trace_span("interleaved_update",
                                          workers=self.workers,
                                          proceed=proceed):
                    self._offload_update(flat_grads, proceed)
            elif proceed:
                with telemetry.trace_span("update", workers=self.workers):
                    self._update(flat_grads)
            traffic = self.meter.end_iteration(self._traffic_totals())
            self.loss_history.append(loss)
            span.set(step=self.step_count, loss=loss, overflow=overflow,
                     host_reads=traffic.host_reads,
                     host_writes=traffic.host_writes,
                     internal_reads=traffic.internal_reads,
                     internal_writes=traffic.internal_writes)
        return StepResult(step=self.step_count, loss=loss, grad_norm=norm,
                          overflow=overflow, traffic=traffic)

    def _offload(self, flat_grads: np.ndarray, overflow: bool) -> None:
        """Engine hook: move this step's gradients to where the update
        reads them (``overflow``: the update will be skipped)."""

    def _update(self, flat_grads: np.ndarray) -> None:
        """Engine hook: run the optimizer over every shard or block and
        refresh the FP16 working copy; ``step_count`` and the learning
        rate are already this step's."""
        raise NotImplementedError

    def _offload_update(self, flat_grads: np.ndarray,
                        proceed: bool) -> None:
        """Engine hook: offload, then (if ``proceed``) update, with no
        barrier in between.  An engine whose shards or blocks are
        independent overrides this to chain them one by one."""
        self._offload(flat_grads, overflow=not proceed)
        if proceed:
            self._update(flat_grads)

    def forward_backward(self, batch: Sequence[np.ndarray]
                         ) -> Tuple[float, np.ndarray, float, bool]:
        """One scaled forward/backward pass (a single micro-batch); the
        gradients are valid until the next call."""
        return self.forward_backward_many([batch])

    def forward_backward_many(self, batches: Sequence[Sequence[np.ndarray]]
                              ) -> Tuple[float, np.ndarray, float, bool]:
        """Scaled forward/backward over one or more micro-batches.

        Returns ``(loss, flat_unscaled_grads, grad_norm, overflow)``.  The
        unscaled gradients are averaged over the micro-batches (large-
        batch semantics); one pass over the result then clips and gives
        the overflow verdict — the norm is non-finite exactly when some
        gradient is, and a NaN/Inf in any micro-batch survives the mean.
        On overflow the gradients are left as they are, the reported norm
        is 0.0 and the step must be skipped.

        The gradients are a buffer this trainer owns (the space's flat
        gradient buffer, or the micro-batch accumulator): valid until
        the next call, so copy them to keep them.
        """
        if not batches:
            raise TrainingError("need at least one micro-batch")
        total_loss = 0.0
        combined: Optional[np.ndarray] = None
        for batch in batches:
            self.model.zero_grad()
            with activation_scope(self._spill):
                loss = self.loss_fn(self.model, *batch)
                # Overflow in the scaled backward pass is the signal the
                # loss scaler exists to catch; silence numpy's warning.
                with np.errstate(over="ignore", invalid="ignore"):
                    scaled = loss * float(self.scaler.scale)
                    scaled.backward()
                    flat = self.space.gather_grads(1.0 / self.scaler.scale)
            total_loss += float(loss.item())
            if len(batches) == 1:
                combined = flat
            elif combined is None:
                if self._accumulated is None:
                    self._accumulated = np.empty_like(flat)
                combined = self._accumulated
                np.copyto(combined, flat)
            else:
                combined += flat
        if len(batches) > 1:
            combined *= np.float32(1.0 / len(batches))
        norm = clip_gradients([combined], self.config.grad_clip)
        overflow = not math.isfinite(norm)
        return (total_loss / len(batches), combined,
                0.0 if overflow else norm, overflow)


#: Write-back span -> the histogram its durations (in µs) fill.
_WRITEBACK_LATENCY = {
    "handler.urgent_writeback": "handler_urgent_writeback_latency_us",
    "handler.lazy_writeback": "handler_lazy_writeback_latency_us",
}
_QUEUE_DEPTH = "handler_lazy_queue_depth"


def _fault_delta(faults: Dict[Series, float],
                 before: Dict[Series, float]) -> List[Tuple[Series, float]]:
    """A step's fault-ledger delta, in ledger order (:data:`METRIC_HELP`
    order, then labels) so every backend lists a step's faults alike.
    Alerts are left out: the flight record holds them as alerts."""
    order = list(METRIC_HELP)
    return [(key, total - before.get(key, 0)) for key, total in sorted(
                faults.items(), key=lambda item: (order.index(item[0][0]),
                                                  item[0][1]))
            if key[0] != "health_alerts_total"
            and total > before.get(key, 0)]


def _record_step_metrics(registry, spans: Sequence[telemetry.Span],
                         io: Dict[str, Tuple[int, int]],
                         io_prev: Dict[str, Tuple[int, int]],
                         faults: Dict[Series, float],
                         faults_prev: Dict[Series, float]) -> None:
    """One step's metrics, one registry lookup per series: the handler's
    latency histograms and queue depth from its write-back spans, the
    ``storage_*_bytes_total`` counters from the block devices' byte
    totals (``io``, against the previous step's), the fault-domain
    counters from the fault series (likewise), and the ``arena_*``
    families from every live arena — gauges as at step end, counters
    raised to the lifetime totals, so engines sharing a session never
    count an arena twice."""
    series: Dict[Tuple[str, object], List[float]] = {}
    for span in spans:
        family = _WRITEBACK_LATENCY.get(span.name)
        if family is not None:
            device = span.attrs["device"]
            series.setdefault((family, device), []).append(
                span.duration * 1e6)
            if "queue_depth" in span.attrs:
                series.setdefault((_QUEUE_DEPTH, device), []).append(
                    span.attrs["queue_depth"])
    for (family, device), values in series.items():
        record = (registry.gauge(family, device=device).set
                  if family == _QUEUE_DEPTH
                  else registry.histogram(family, device=device).observe)
        for value in values:
            record(value)
    for device, totals in io.items():
        for family, total, before in zip(
                ("storage_read_bytes_total", "storage_write_bytes_total"),
                totals, io_prev.get(device, (0, 0))):
            if total > before:
                registry.counter(family, device=device).inc(total - before)
    for (family, labels), total in faults.items():
        before = faults_prev.get((family, labels), 0)
        if total > before:
            registry.describe(family, METRIC_HELP[family])
            registry.counter(family, **dict(labels)).inc(total - before)
    arenas: Dict[str, List[int]] = {}
    for arena in live_arenas():
        stats = arena.stats()
        sums = arenas.setdefault(arena.name, [0, 0, 0, 0])
        for index, value in enumerate((
                stats.bytes_in_use, stats.high_water_bytes,
                stats.checkouts, stats.allocations)):
            sums[index] += value
    for name, (in_use, high, checkouts, allocations) in arenas.items():
        registry.gauge("arena_bytes_in_use", arena=name).set(in_use)
        registry.gauge("arena_high_water_bytes", arena=name).set(high)
        for family, total in (("arena_checkouts_total", checkouts),
                              ("arena_alloc_total", allocations)):
            counter = registry.counter(family, arena=name)
            counter.inc(max(0.0, total - counter.value))


class BaselineOffloadEngine(MixedPrecisionTrainer):
    """ZeRO-Infinity-style baseline: RAID0 storage + CPU update."""

    engine_name = "baseline"

    def __init__(self, model: Module, loss_fn: LossFn, storage_dir: str,
                 config: Optional[TrainingConfig] = None) -> None:
        config = config or TrainingConfig()
        num_ssds = config.raid_members
        if num_ssds < 1:
            raise TrainingError("need at least one SSD")
        super().__init__(model, loss_fn, config, storage_dir)
        self.faults = make_fault_injector(config, self.fault_ledger)
        # Members are opened one by one, so a failure mid-construction
        # releases every device already opened (no leaked descriptors).
        self._members: List[FileBlockDevice] = []
        #: The block loop's I/O thread: hand-offs in, one answer each out.
        self._io_jobs: "queue.SimpleQueue[Optional[tuple]]" = \
            queue.SimpleQueue()
        self._io_done: "queue.SimpleQueue[Optional[BaseException]]" = \
            queue.SimpleQueue()
        self._io_thread = threading.Thread(target=self._io_loop,
                                           name="raid0-io", daemon=True)
        try:
            self._io_thread.start()
            os.makedirs(storage_dir, exist_ok=True)
            total = self.space.total_elements
            words = 2 + self.optimizer.states_per_param  # grads + states
            per_member = (4 * total * words // num_ssds) + (1 << 20)
            for i in range(num_ssds):
                site = (self.faults.site(i)
                        if self.faults is not None else None)
                self._members.append(FileBlockDevice(
                    os.path.join(storage_dir, f"ssd{i}.img"), per_member,
                    name=f"ssd{i}", fault_site=site))
            self.volume = RAID0Volume(self._members,
                                      chunk_bytes=config.raid_chunk_bytes)
            self.store = TensorStore(self.volume)

            self._state_names = self.optimizer.state_names
            #: A block set's regions, in its buffers' order.
            self._regions = ("grads", "master_params", *self._state_names)
            for name in ("master_params", "grads", *self._state_names):
                self.store.allocate(name, total)

            # Initial placement: masters = init weights, moments = zero;
            # the FP16 working copy is what the model computes with.
            # Placement is setup traffic, outside the fault domain.
            with fault_bypass(self.faults):
                masters = self.space.gather_params()
                self.store.write_array("master_params", masters)
                zero = np.zeros(total, dtype=np.float32)
                for name in self._state_names:
                    self.store.write_array(name, zero)
            self.space.install_fp16_params(masters)
            # The step metrics count steps, not the placement.
            self._block_io.update(
                (member.name, member.counters) for member in self._members)
            self._io_snapshot = self._io_totals()
        except BaseException:
            self._shutdown(abandon=True)
            raise

    def _release(self, abandon: bool) -> None:
        if self._io_thread.is_alive():
            self._io_jobs.put(None)
            self._io_thread.join()
        for member in self._members:
            member.close()

    def _resident(self) -> Dict[str, int]:
        return {"ef_residual": 0, "compressed_stream": 0, "handler_dram": 0}

    def fault_series(self) -> Dict[Series, float]:
        """The ledger's series, and one per failed RAID0 member."""
        series = super().fault_series()
        for index in self.volume.failed_members:
            series[series_key("raid_degraded_total", volume=self.volume.name,
                              member=self._members[index].name)] = 1
        return series

    def _traffic_totals(self) -> IterationTraffic:
        """Every byte a RAID member moves crosses the host link."""
        counters = self.volume.counters()
        return IterationTraffic(host_reads=counters.bytes_read,
                                host_writes=counters.bytes_written)

    # ------------------------------------------------------------------
    # step hooks: block-wise upload -> AVX update -> offload (Fig. 4a)
    # ------------------------------------------------------------------
    def _offload(self, flat_grads: np.ndarray, overflow: bool) -> None:
        with telemetry.trace_span("grad_offload.write",
                                  resource="host-link-down",
                                  nbytes=4 * flat_grads.size):
            self.store.write_array("grads", flat_grads)

    def _update(self, flat_grads: np.ndarray) -> None:
        self._block_loop(None, update=True)

    def _offload_update(self, flat_grads: np.ndarray,
                        proceed: bool) -> None:
        self._block_loop(flat_grads, update=proceed)

    def _block_loop(self, unwritten: Optional[np.ndarray],
                    update: bool) -> None:
        """The per-block loop of both schedules, two blocks deep.

        ``unwritten`` is the gradient vector when it has not been
        offloaded as a whole (interleaved): each block's slice is then
        written right before that block's reads, hitting the same
        offsets with the same bytes as the whole-array write.

        Hand-off ``j`` asks the ``raid0-io`` thread to write back block
        ``j - 2`` (masters and states), then load block ``j``; while it
        runs, this thread updates block ``j - 1`` and installs its FP16
        slice.  So each member sees R0 R1 W0 R2 W1 ... W(n-1), the DES's
        depth-2 order (``perf/scenarios.py``'s ``update-buffers``).  Two
        arena block sets alternate: the store reads land directly in
        them, the fused optimizer updates them in place, and the same
        views are written back — zero per-block ndarray allocation at
        steady state.  One hand-off is in flight at a time, and its
        answer is collected before any error leaves (this thread's own
        error wins), so no I/O lands in a block back in the arena.
        """
        total = self.space.total_elements
        size = min(self.config.subgroup_elements, total)
        if not update:
            for start in range(0, total, size):
                self._offload_block(unwritten, start, min(size, total - start))
            return
        width = len(self._regions)
        with scratch_buffers(size, 2 * width) as buffers:
            sets = buffers[:width], buffers[width:]
            # slots[j + 2] is block j; the padding is "no block".
            slots = [None, None, *(
                (start, min(size, total - start), sets[start // size % 2])
                for start in range(0, total, size)), None, None]
            for j in range(len(slots) - 2):
                self._io_jobs.put((slots[j], slots[j + 2], unwritten))
                try:
                    if slots[j + 1] is not None:
                        start, count, blocks = slots[j + 1]
                        with telemetry.trace_span(
                                "cpu_update.block", start=start,
                                elements=count, resource="host-cpu"):
                            masters = blocks[1][:count]
                            self.optimizer.step(
                                masters, blocks[0][:count],
                                {name: block[:count] for name, block in
                                 zip(self._state_names, blocks[2:])},
                                self.step_count)
                            self.space.install_fp16_slice(start, masters)
                finally:
                    error = self._io_done.get()
                if error is not None:
                    raise error

    def _offload_block(self, unwritten: np.ndarray, start: int,
                       count: int) -> None:
        with telemetry.trace_span("grad_offload.block", start=start,
                                  resource="host-link-down",
                                  nbytes=4 * count):
            self.store.write_slice("grads", start,
                                   unwritten[start:start + count])

    def _io_loop(self) -> None:
        """The ``raid0-io`` thread: run the block loop's hand-offs in
        FIFO order, answering each on ``_io_done`` (its error or None)."""
        while True:
            hand_off = self._io_jobs.get()
            if hand_off is None:
                return
            written, loaded, unwritten = hand_off
            error = None
            try:
                if written is not None:
                    start, count, blocks = written
                    with telemetry.trace_span(
                            "raid0_io.writeback", start=start,
                            resource="host-link-down",
                            nbytes=4 * count * (len(blocks) - 1)):
                        for name, block in zip(self._regions[1:],
                                               blocks[1:]):
                            self.store.write_slice(name, start,
                                                   block[:count])
                if loaded is not None:
                    start, count, blocks = loaded
                    if unwritten is not None:
                        self._offload_block(unwritten, start, count)
                    with telemetry.trace_span(
                            "raid0_io.load", start=start,
                            resource="host-link-up",
                            nbytes=4 * count * len(blocks)):
                        for name, block in zip(self._regions, blocks):
                            self.store.read_slice_into(name, start, count,
                                                       block)
            except BaseException as exc:  # re-raised by the stepping thread
                error = exc
            self._io_done.put(error)

    # ------------------------------------------------------------------
    # checkpoint hooks
    # ------------------------------------------------------------------
    def gather_state_arrays(self) -> Dict[str, np.ndarray]:
        """Flat masters + moments for checkpointing."""
        return {name: self.store.read_array(name)
                for name in ("master_params", *self._state_names)}

    def scatter_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Write flat masters + moments back into storage."""
        for name in ("master_params", *self._state_names):
            self.store.write_array(name, arrays[name])
