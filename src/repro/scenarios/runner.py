"""Campaign execution: seeded replayable runs with an event log.

:class:`ScenarioRunner` executes a :class:`~repro.scenarios.spec.Scenario`
against any :func:`repro.api.create_engine` mode and either parallel
backend.  The run is fully deterministic given the effective seed: the
model init, every batch, and every fault stream derive from it, the SLO
rule set is restricted to schedule-independent signals
(:data:`SCENARIO_SLO_RULES`), and the emitted
``smart-infinity/scenario/v1`` event log carries no wall-clock fields —
so the same seed reproduces a byte-identical log, which is what
``python -m repro scenario replay`` asserts.

Fault-plan splices happen at phase boundaries via the checkpoint path:
the engine's full state (masters, moments, error-feedback residual,
loss scaler, step counter) is saved, the engine is torn down, and a
fresh engine with the new plan restores from the checkpoint.  The
no-fault *reference* run — used by ``bit_identical_to_reference``
expectations — mirrors the exact same segmentation with every plan
stripped, so the only difference between the two runs is the injected
faults; bit-identity at the recovery boundary is then precisely the
paper's graceful-degradation claim.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError, ScenarioError
from ..faults import FaultPlan
from ..faults.plan import Series, summarize
from ..runtime.checkpoint import load_checkpoint, save_checkpoint
from ..runtime.engine import TrainingConfig
from ..telemetry.health import DEFAULT_SLO_RULES
from .spec import PhaseSpec, Scenario

#: Event-log schema marker (shared with the scenario file schema).
EVENT_SCHEMA = "smart-infinity/scenario/v1"

#: Signals whose values depend on wall-clock or process-global state;
#: rules over them would make the event log timing-dependent.
_NONDETERMINISTIC_SIGNALS = ("steps_per_s", "step_seconds",
                             "arena_hit_rate", "backoff_s_step")

#: The default SLO rules minus wall-clock-dependent ones — the subset a
#: replayable campaign can assert on (loss finiteness/divergence,
#: dropouts, retry storms).  Scenario engines default to these.
SCENARIO_SLO_RULES: Tuple[Dict[str, object], ...] = tuple(
    rule for rule in DEFAULT_SLO_RULES
    if rule["signal"] not in _NONDETERMINISTIC_SIGNALS)


def _checksum(params: np.ndarray) -> str:
    """Stable digest of the trained parameters (bit-identity witness)."""
    return hashlib.sha256(params.tobytes()).hexdigest()[:16]


def _loss_fn(model, tokens, labels):
    return model.loss(tokens, labels)


#: The ``fault_stats()`` totals a campaign reports.
_COUNTERS = ("injected", "retries", "retries_exhausted", "dropouts",
             "demotions", "degraded_steps")


@dataclass
class _Ledger:
    """Campaign-cumulative accounting across engine rebuilds.

    Fault-plan splices tear engines down, so per-engine ledgers reset;
    this one absorbs each closed engine's fault series, alerts and dumps
    and exposes a merged view over (closed engines + the live one).
    """

    series: Dict[Series, float] = field(default_factory=dict)
    alerts: List[str] = field(default_factory=list)
    dumps: int = 0

    def absorb(self, engine) -> None:
        for key, amount in engine.fault_series().items():
            self.series[key] = self.series.get(key, 0) + amount
        self.alerts.extend(alert.rule for alert in engine.alerts)
        self.dumps += len(engine.flight_dumps())

    def view(self, engine=None) -> Dict[str, object]:
        """Merged totals including the live engine (if any)."""
        merged = _Ledger(dict(self.series), list(self.alerts), self.dumps)
        if engine is not None:
            merged.absorb(engine)
        stats = summarize(merged.series)
        return {**{key: stats[key] for key in _COUNTERS},
                "alerts": merged.alerts, "dumps": merged.dumps}


def _delta(before: Dict[str, object],
           after: Dict[str, object]) -> Dict[str, object]:
    """Phase-local counter movement between two ledger views."""
    injected = {
        kind: int(after["injected"].get(kind, 0)) - int(count)
        for kind, count in before["injected"].items()
    }
    injected.update({kind: int(count)
                     for kind, count in after["injected"].items()
                     if kind not in before["injected"]})
    return {
        "injected": {k: v for k, v in injected.items() if v},
        "retries": after["retries"] - before["retries"],
        "retries_exhausted": (after["retries_exhausted"]
                              - before["retries_exhausted"]),
        "dropouts": after["dropouts"] - before["dropouts"],
        "demotions": after["demotions"] - before["demotions"],
        "alerts": after["alerts"][len(before["alerts"]):],
        "dumps": after["dumps"] - before["dumps"],
    }


@dataclass(frozen=True)
class CheckResult:
    """One evaluated expectation."""

    check: str
    expected: object
    actual: object
    ok: bool

    def to_dict(self) -> Dict[str, object]:
        return {"check": self.check, "expected": self.expected,
                "actual": self.actual, "ok": self.ok}


@dataclass
class PhaseReport:
    """Per-phase outcome: steps run plus every check's verdict."""

    name: str
    kind: str
    steps: int
    checks: List[CheckResult] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name, "kind": self.kind, "steps": self.steps,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class CampaignReport:
    """One sweep point's outcome: its phases plus final state."""

    label: str
    phases: List[PhaseReport] = field(default_factory=list)
    final_checksum: Optional[str] = None
    reference_checksums: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(phase.passed for phase in self.phases)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label, "passed": self.passed,
            "phases": [phase.to_dict() for phase in self.phases],
            "final_checksum": self.final_checksum,
            "reference_checksums": self.reference_checksums,
            "counters": self.counters,
        }


@dataclass
class ScenarioReport:
    """A full run: every campaign plus the serialized event log."""

    scenario: str
    seed: int
    campaigns: List[CampaignReport] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    log_path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(campaign.passed for campaign in self.campaigns)

    @property
    def log_text(self) -> str:
        """The event log as canonical JSONL (what replay byte-compares)."""
        return "".join(json.dumps(event, sort_keys=True) + "\n"
                       for event in self.events)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": EVENT_SCHEMA,
            "scenario": self.scenario, "seed": self.seed,
            "passed": self.passed,
            "campaigns": [c.to_dict() for c in self.campaigns],
            "events": len(self.events),
            "log_path": self.log_path,
        }


class ScenarioRunner:
    """Executes a campaign deterministically and evaluates expectations.

    Parameters
    ----------
    scenario:
        The campaign to run.
    workdir:
        Directory for engine storage, checkpoints, flight dumps, and the
        default event-log location.  None uses a temporary directory
        removed after the run (dump *counts* are still recorded in the
        log).
    backend:
        Override ``config.parallel_backend`` (the CLI ``--backend``
        flag); None keeps the scenario's setting.
    chaos_seed:
        Override the scenario seed (the CLI ``--chaos-seed`` flag); the
        effective seed drives model init, batches, and fault streams.
    log_path:
        Where to write the JSONL event log; None writes
        ``<workdir>/events.jsonl`` when a workdir was given, else keeps
        the log in memory only.
    workers:
        Override ``config.parallel_csds`` (the CLI ``--workers`` flag);
        None keeps the scenario's setting.  Bit-identity makes this a
        pure throughput knob.
    slo_rules:
        Override the SLO rule set (the CLI ``--slo`` flag) on every
        campaign, including the reference run; None keeps the
        scenario's rules (default: :data:`SCENARIO_SLO_RULES`).
    fault_plan:
        Override the scenario-level (pre-splice) fault plan (the CLI
        ``--fault-plan`` flag); None keeps the scenario's plan.
    schedule:
        Override ``config.schedule`` (the CLI ``--schedule`` flag);
        None keeps the scenario's setting.  Bit-identity between the
        phased and interleaved pipelines makes this a pure throughput
        knob, like ``workers``.
    activation_offload:
        Override ``config.activation_offload`` (the CLI
        ``--activation-offload`` flag); None keeps the scenario's
        setting.
    """

    def __init__(self, scenario: Scenario,
                 workdir: Optional[str] = None,
                 backend: Optional[str] = None,
                 chaos_seed: Optional[int] = None,
                 log_path: Optional[str] = None,
                 workers: Optional[int] = None,
                 slo_rules: Optional[List[Dict[str, object]]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 schedule: Optional[str] = None,
                 activation_offload: Optional[str] = None) -> None:
        if fault_plan is not None:
            scenario = scenario.with_base_fault_plan(fault_plan)
        self.scenario = (scenario if chaos_seed is None
                         else scenario.with_seed(chaos_seed))
        self.seed = self.scenario.seed
        self.backend = backend
        self.workers = workers
        self.slo_rules = slo_rules
        self.schedule = schedule
        self.activation_offload = activation_offload
        self._workdir = workdir
        self._log_path = log_path
        self._events: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        """Run every campaign (one per sweep point) and evaluate checks."""
        scenario = self.scenario
        from ..api import ENGINE_MODES
        if scenario.engine not in ENGINE_MODES:
            raise ScenarioError(
                f"scenario {scenario.name!r}: unknown engine mode "
                f"{scenario.engine!r}; choose from {ENGINE_MODES}")
        owns_workdir = self._workdir is None
        workdir = self._workdir or tempfile.mkdtemp(prefix="scenario-")
        self._events = []
        report = ScenarioReport(scenario=scenario.name, seed=self.seed)
        self._emit("scenario_begin", schema=EVENT_SCHEMA,
                   scenario=scenario.name, seed=self.seed,
                   engine=scenario.engine,
                   backend=self.backend or
                   scenario.config.parallel_backend,
                   campaigns=[label for label, _
                              in scenario.campaign_configs()])
        try:
            for index, (label, config) in \
                    enumerate(scenario.campaign_configs()):
                campaign_dir = os.path.join(workdir, f"campaign{index}")
                os.makedirs(campaign_dir, exist_ok=True)
                report.campaigns.append(
                    self._run_campaign(label, config, campaign_dir))
        finally:
            report.events = self._events
            self._emit("scenario_end", scenario=scenario.name,
                       passed=report.passed)
            report.events = self._events
            report.log_path = self._write_log(workdir, owns_workdir)
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)
        return report

    def _write_log(self, workdir: str, owns_workdir: bool
                   ) -> Optional[str]:
        path = self._log_path
        if path is None:
            if owns_workdir:
                return None
            path = os.path.join(workdir, "events.jsonl")
        with open(path, "w") as handle:
            for event in self._events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def _emit(self, event: str, **fields: object) -> None:
        self._events.append({"event": event, **fields})

    # ------------------------------------------------------------------
    # engine lifecycle
    # ------------------------------------------------------------------
    def _campaign_config(self, config: TrainingConfig, dump_dir: str,
                         faulted: bool) -> TrainingConfig:
        """The effective engine config for one campaign run."""
        overrides: Dict[str, object] = {}
        if self.backend is not None:
            overrides["parallel_backend"] = self.backend
        if self.workers is not None:
            overrides["parallel_csds"] = self.workers
        if self.schedule is not None:
            overrides["schedule"] = self.schedule
        if self.activation_offload is not None:
            overrides["activation_offload"] = self.activation_offload
        if self.slo_rules is not None:
            overrides["slo_rules"] = [dict(rule)
                                      for rule in self.slo_rules]
        elif config.slo_rules is None:
            # Replayability: only schedule-independent rules by default.
            overrides["slo_rules"] = [dict(rule)
                                      for rule in SCENARIO_SLO_RULES]
        wants_dumps = any(
            phase.expect.dumps_written for phase in self.scenario.phases)
        if faulted and wants_dumps and config.flight_dump_dir is None:
            overrides["flight_dump_dir"] = dump_dir
        if not faulted:
            # The reference run must not burn dump-file budget or count
            # chaos alerts; it exists purely as a bit-identity oracle.
            overrides["flight_dump_dir"] = None
        if overrides:
            config = replace(config, **overrides)
        return config

    def _build_engine(self, config: TrainingConfig,
                      plan: Optional[FaultPlan], storage_dir: str):
        from ..api import create_engine
        plan = plan.with_seed(self.seed) if plan is not None else None
        config = replace(config, fault_plan=plan)
        os.makedirs(storage_dir, exist_ok=True)
        model = self.scenario.workload.make_model(self.seed)
        return create_engine(self.scenario.engine, model, _loss_fn,
                             storage_dir, config=config)

    def _splice(self, engine, ledger: _Ledger, config: TrainingConfig,
                plan: Optional[FaultPlan], segment_dir: str):
        """Swap the fault plan via checkpoint -> rebuild -> restore."""
        os.makedirs(segment_dir, exist_ok=True)
        ckpt = os.path.join(segment_dir, "splice.npz")
        save_checkpoint(engine, ckpt)
        ledger.absorb(engine)
        engine.close()
        rebuilt = self._build_engine(config, plan,
                                     os.path.join(segment_dir, "storage"))
        load_checkpoint(rebuilt, ckpt)
        return rebuilt

    # ------------------------------------------------------------------
    # campaign execution
    # ------------------------------------------------------------------
    def _run_campaign(self, label: str, config: TrainingConfig,
                      campaign_dir: str) -> CampaignReport:
        scenario = self.scenario
        report = CampaignReport(label=label)
        self._emit("campaign_begin", campaign=label,
                   phases=[phase.name for phase in scenario.phases])
        if scenario.needs_reference:
            report.reference_checksums = self._run_reference(
                label, config, os.path.join(campaign_dir, "reference"))
            self._emit("reference", campaign=label,
                       checksums=report.reference_checksums)

        chaos_config = self._campaign_config(
            config, os.path.join(campaign_dir, "dumps"), faulted=True)
        ledger = _Ledger()
        engine = self._build_engine(
            chaos_config, chaos_config.fault_plan,
            os.path.join(campaign_dir, "segment0", "storage"))
        global_step = 0
        segment = 0
        try:
            for phase in scenario.phases:
                if phase.splices:
                    segment += 1
                    engine = self._splice(
                        engine, ledger, chaos_config, phase.fault_plan,
                        os.path.join(campaign_dir, f"segment{segment}"))
                before = ledger.view(engine)
                self._emit("phase_begin", campaign=label,
                           phase=phase.name, kind=phase.kind,
                           steps=phase.steps, splice=phase.splices)
                phase_report = PhaseReport(name=phase.name,
                                           kind=phase.kind,
                                           steps=phase.steps)
                report.phases.append(phase_report)
                try:
                    losses, global_step = self._run_steps(
                        engine, phase, label, global_step)
                except ReproError as exc:
                    phase_report.error = \
                        f"{type(exc).__name__}: {exc}"
                    self._emit("phase_end", campaign=label,
                               phase=phase.name, passed=False,
                               error=phase_report.error)
                    break
                after = ledger.view(engine)
                checksum = _checksum(engine.space.gather_params())
                self._check_phase(
                    phase, phase_report, label,
                    delta=_delta(before, after), cumulative=after,
                    losses=losses, checksum=checksum,
                    reference=report.reference_checksums.get(phase.name))
                self._emit("phase_end", campaign=label,
                           phase=phase.name,
                           passed=phase_report.passed,
                           checksum=checksum,
                           counters=_delta(before, after))
            report.final_checksum = \
                _checksum(engine.space.gather_params())
            report.counters = ledger.view(engine)
        finally:
            ledger.absorb(engine)
            engine.close()
        self._emit("campaign_end", campaign=label, passed=report.passed,
                   checksum=report.final_checksum)
        return report

    def _run_reference(self, label: str, config: TrainingConfig,
                       reference_dir: str) -> Dict[str, str]:
        """The no-fault oracle: same schedule and segmentation, faults
        stripped; returns the per-phase parameter checksums."""
        scenario = self.scenario
        ref_config = self._campaign_config(config, reference_dir,
                                           faulted=False)
        ledger = _Ledger()
        engine = self._build_engine(
            ref_config, None,
            os.path.join(reference_dir, "segment0", "storage"))
        checksums: Dict[str, str] = {}
        global_step = 0
        segment = 0
        try:
            for phase in scenario.phases:
                if phase.splices:
                    # Mirror the chaos run's engine lifecycle exactly —
                    # a rebuild must not be the source of a divergence.
                    segment += 1
                    engine = self._splice(
                        engine, ledger, ref_config, None,
                        os.path.join(reference_dir,
                                     f"segment{segment}"))
                _, global_step = self._run_steps(
                    engine, phase, f"{label}/reference", global_step,
                    emit=False)
                checksums[phase.name] = \
                    _checksum(engine.space.gather_params())
        finally:
            engine.close()
        return checksums

    def _run_steps(self, engine, phase: PhaseSpec, label: str,
                   global_step: int,
                   emit: bool = True) -> Tuple[List[float], int]:
        workload = self.scenario.workload
        batch = phase.batch or workload.batch
        losses: List[float] = []
        for _ in range(phase.steps):
            batches = workload.make_batches(
                self.seed, global_step, batch, phase.micro_batches)
            if phase.micro_batches > 1:
                result = engine.train_step_accumulated(batches)
            else:
                result = engine.train_step(*batches[0])
            global_step += 1
            losses.append(result.loss)
            if emit:
                self._emit("step", campaign=label, phase=phase.name,
                           global_step=global_step,
                           engine_step=result.step, loss=result.loss,
                           overflow=result.overflow)
        return losses, global_step

    # ------------------------------------------------------------------
    # expectation evaluation
    # ------------------------------------------------------------------
    def _check_phase(self, phase: PhaseSpec, report: PhaseReport,
                     label: str, delta: Dict[str, object],
                     cumulative: Dict[str, object],
                     losses: Sequence[float], checksum: str,
                     reference: Optional[str]) -> None:
        expect = phase.expect

        def add(check: str, expected: object, actual: object,
                ok: bool) -> None:
            result = CheckResult(check=check, expected=expected,
                                 actual=actual, ok=bool(ok))
            report.checks.append(result)
            self._emit("check", campaign=label, phase=phase.name,
                       **result.to_dict())

        injected_total = sum(delta["injected"].values())
        if expect.min_injected is not None:
            add("min_injected", expect.min_injected, injected_total,
                injected_total >= expect.min_injected)
        if expect.max_injected is not None:
            add("max_injected", expect.max_injected, injected_total,
                injected_total <= expect.max_injected)
        for kind in expect.injected_include:
            add("injected_include", kind,
                sorted(delta["injected"]),
                kind in delta["injected"])
        if expect.min_retries is not None:
            add("min_retries", expect.min_retries, delta["retries"],
                delta["retries"] >= expect.min_retries)
        if expect.min_demotions is not None:
            add("min_demotions", expect.min_demotions,
                cumulative["demotions"],
                cumulative["demotions"] >= expect.min_demotions)
        if expect.max_demotions is not None:
            add("max_demotions", expect.max_demotions,
                cumulative["demotions"],
                cumulative["demotions"] <= expect.max_demotions)
        for rule in expect.alerts_include:
            add("alerts_include", rule, sorted(set(delta["alerts"])),
                rule in delta["alerts"])
        if expect.no_new_alerts:
            add("no_new_alerts", [], sorted(set(delta["alerts"])),
                not delta["alerts"])
        if expect.dumps_written is not None:
            add("dumps_written", expect.dumps_written, delta["dumps"],
                (delta["dumps"] > 0) == expect.dumps_written)
        if expect.loss_finite is not None:
            finite = all(math.isfinite(loss) for loss in losses)
            add("loss_finite", expect.loss_finite, finite,
                finite == expect.loss_finite)
        if expect.max_loss is not None:
            worst = max(losses) if losses else None
            add("max_loss", expect.max_loss, worst,
                worst is None or worst <= expect.max_loss)
        if expect.bit_identical_to_reference is not None:
            if reference is None:
                add("bit_identical_to_reference",
                    expect.bit_identical_to_reference, None, False)
            else:
                identical = checksum == reference
                add("bit_identical_to_reference",
                    expect.bit_identical_to_reference,
                    {"run": checksum, "reference": reference},
                    identical == expect.bit_identical_to_reference)
