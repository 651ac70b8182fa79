"""Declarative campaign specifications: phases, expectations, sweeps.

A :class:`Scenario` is a named, seeded sequence of phases — ``setup``,
free-form ``workload`` phases, ``anomaly``, ``detection``, ``recovery``
— declared in JSON/dict form (the same DeepSpeed-config idiom
:class:`~repro.runtime.engine.TrainingConfig` and
:class:`~repro.faults.FaultPlan` use).  Each phase can

* run a number of training steps with its own workload shape (batch
  burst via ``batch``, traffic burst via ``micro_batches`` gradient
  accumulation);
* splice a :class:`~repro.faults.FaultPlan` in (``"fault_plan": {...}``)
  or out (``"fault_plan": null``) — phases without the key inherit the
  currently-active plan;
* assert on the campaign's observable health via an ``expect`` block:
  injected-fault/retry/demotion counters, fired alerts,
  flight-recorder incident dumps, loss finiteness, and bit-identity of
  the trained parameters against a no-fault reference run of the same
  schedule.

A scenario may also declare a one-axis config ``sweep`` (e.g. a
SmartComp ``compression_ratio`` sweep); the whole phase list then runs
once per swept value, each with its own engine and reference run.

Files carry ``schema`` (``smart-infinity/scenario/v1``) and
``schema_version`` markers; a newer ``schema_version`` parses with a
forward-compatibility warning, and unknown keys at every nesting level
fail loudly with did-you-mean suggestions — a typo'd expectation must
not silently pass a chaos campaign.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ScenarioError, reject_unknown_keys
from ..faults import FaultPlan
from ..runtime.engine import TrainingConfig

#: Schema marker shared by scenario files and the runner's event log.
SCENARIO_SCHEMA = "smart-infinity/scenario/v1"

#: Version of the scenario file format this build reads and writes.
SCENARIO_SCHEMA_VERSION = 1

#: Phase kinds (Snippet-3-style campaign staging).  ``workload`` phases
#: are free-form; the others name the chaos-campaign stages.
PHASE_KINDS = ("setup", "workload", "anomaly", "detection", "recovery")

#: Sentinel for "this phase does not change the active fault plan" —
#: distinct from an explicit ``"fault_plan": null`` splice-out.
UNCHANGED = object()


def check_schema_version(what: str, data: Dict,
                         current: int = SCENARIO_SCHEMA_VERSION) -> int:
    """Validate a document's ``schema_version`` (forward-compatible).

    Older and current versions parse silently; a *newer* version parses
    with a warning (a newer writer may rely on fields this build does
    not understand).  Non-integer or non-positive versions are rejected.
    """
    version = data.get("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        raise ScenarioError(
            f"{what}: schema_version must be a positive integer, "
            f"got {version!r}")
    if version > current:
        warnings.warn(
            f"{what} has schema_version {version}, newer than this "
            f"build's {current}; fields introduced after version "
            f"{current} may be ignored", stacklevel=3)
    return version


@dataclass(frozen=True)
class WorkloadSpec:
    """The scenario's model + data shape (one tiny transformer family).

    The model and every batch are derived deterministically from the
    scenario seed, so the chaos run, its no-fault reference, and any
    replay see byte-identical inputs.
    """

    dim: int = 32
    num_layers: int = 2
    vocab_size: int = 64
    seq_len: int = 16
    batch: int = 4
    num_heads: int = 2

    def __post_init__(self) -> None:
        for name in ("dim", "num_layers", "vocab_size", "seq_len",
                     "batch", "num_heads"):
            if int(getattr(self, name)) < 1:
                raise ScenarioError(
                    f"workload.{name} must be >= 1, "
                    f"got {getattr(self, name)}")

    def make_model(self, seed: int):
        from ..nn import SequenceClassifier, bert_config
        return SequenceClassifier(
            bert_config(vocab_size=self.vocab_size, dim=self.dim,
                        num_layers=self.num_layers,
                        num_heads=self.num_heads,
                        max_seq_len=self.seq_len),
            num_classes=2, seed=seed)

    def make_batches(self, seed: int, step: int, batch: int,
                     micro_batches: int) -> List[Tuple[np.ndarray,
                                                       np.ndarray]]:
        """Micro-batches for one global step, keyed on (seed, step)."""
        rng = np.random.default_rng([seed, step])
        return [(rng.integers(0, self.vocab_size,
                              size=(batch, self.seq_len)),
                 rng.integers(0, 2, size=batch))
                for _ in range(micro_batches)]

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkloadSpec":
        reject_unknown_keys("workload", data,
                            [f.name for f in fields(cls)], ScenarioError)
        return cls(**{key: int(value) for key, value in data.items()})


#: Expectation keys, their value checkers, and a short description each
#: (used for validation errors and the docs table).
_EXPECT_KEYS = (
    "min_injected", "max_injected", "injected_include", "min_retries",
    "min_demotions", "max_demotions", "alerts_include", "no_new_alerts",
    "dumps_written", "loss_finite", "max_loss",
    "bit_identical_to_reference",
)


@dataclass(frozen=True)
class Expectations:
    """Assertions evaluated at the end of a phase.

    Counter bounds (``min_injected``/``max_injected``/``min_retries``
    and ``injected_include``) apply to the *phase delta*; demotion
    bounds apply to the campaign-cumulative count (a demotion is
    permanent).  ``alerts_include`` names alert rules/incidents that
    must have fired during the phase; ``bit_identical_to_reference``
    compares the trained parameters against a no-fault reference run at
    the same point in the schedule.
    """

    min_injected: Optional[int] = None
    max_injected: Optional[int] = None
    injected_include: Tuple[str, ...] = ()
    min_retries: Optional[int] = None
    min_demotions: Optional[int] = None
    max_demotions: Optional[int] = None
    alerts_include: Tuple[str, ...] = ()
    no_new_alerts: bool = False
    dumps_written: Optional[bool] = None
    loss_finite: Optional[bool] = None
    max_loss: Optional[float] = None
    bit_identical_to_reference: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "injected_include",
                           tuple(self.injected_include))
        object.__setattr__(self, "alerts_include",
                           tuple(self.alerts_include))

    @property
    def empty(self) -> bool:
        return self == Expectations()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            default = f.default if f.default is not None else None
            if isinstance(value, tuple):
                if value:
                    out[f.name] = list(value)
            elif value is not None and value != default:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict, where: str) -> "Expectations":
        reject_unknown_keys(f"{where}.expect", data, _EXPECT_KEYS,
                            ScenarioError)
        kwargs = dict(data)
        for key in ("injected_include", "alerts_include"):
            if key in kwargs:
                value = kwargs[key]
                if (not isinstance(value, (list, tuple))
                        or not all(isinstance(v, str) for v in value)):
                    raise ScenarioError(
                        f"{where}.expect.{key} must be a list of "
                        f"strings, got {value!r}")
                kwargs[key] = tuple(value)
        return cls(**kwargs)


_PHASE_KEYS = ("name", "kind", "steps", "batch", "micro_batches",
               "fault_plan", "expect")


@dataclass(frozen=True)
class PhaseSpec:
    """One stage of a campaign: workload shape, fault splice, checks."""

    name: str
    kind: str = "workload"
    steps: int = 1
    #: Batch-size override for this phase (burst traffic); None keeps
    #: the scenario workload's batch.
    batch: Optional[int] = None
    #: Gradient-accumulation micro-batches per step (>1 models a
    #: traffic burst without changing update semantics).
    micro_batches: int = 1
    #: Fault splice: :data:`UNCHANGED` inherits the active plan, None
    #: splices faults out, a :class:`FaultPlan` splices one in.
    fault_plan: object = UNCHANGED
    expect: Expectations = field(default_factory=Expectations)

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ScenarioError(
                f"phase {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {PHASE_KINDS}")
        if self.steps < 0:
            raise ScenarioError(
                f"phase {self.name!r}: steps must be >= 0")
        if self.batch is not None and self.batch < 1:
            raise ScenarioError(
                f"phase {self.name!r}: batch must be >= 1")
        if self.micro_batches < 1:
            raise ScenarioError(
                f"phase {self.name!r}: micro_batches must be >= 1")

    @property
    def splices(self) -> bool:
        return self.fault_plan is not UNCHANGED

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name, "kind": self.kind,
                                  "steps": self.steps}
        if self.batch is not None:
            out["batch"] = self.batch
        if self.micro_batches != 1:
            out["micro_batches"] = self.micro_batches
        if self.splices:
            out["fault_plan"] = (None if self.fault_plan is None
                                 else self.fault_plan.to_dict())
        expect = self.expect.to_dict()
        if expect:
            out["expect"] = expect
        return out

    @classmethod
    def from_dict(cls, data: Dict, index: int) -> "PhaseSpec":
        where = f"phase[{index}]"
        reject_unknown_keys(where, data, _PHASE_KEYS, ScenarioError)
        if "name" not in data:
            raise ScenarioError(f"{where} is missing required key 'name'")
        name = str(data["name"])
        fault_plan: object = UNCHANGED
        if "fault_plan" in data:
            raw = data["fault_plan"]
            if raw is None:
                fault_plan = None
            elif isinstance(raw, FaultPlan):
                fault_plan = raw
            else:
                fault_plan = FaultPlan.from_dict(raw)
        expect = Expectations.from_dict(data.get("expect", {}) or {},
                                        f"phase {name!r}")
        return cls(name=name, kind=str(data.get("kind", "workload")),
                   steps=int(data.get("steps", 1)),
                   batch=(int(data["batch"])
                          if data.get("batch") is not None else None),
                   micro_batches=int(data.get("micro_batches", 1)),
                   fault_plan=fault_plan, expect=expect)


_SCENARIO_KEYS = ("schema", "schema_version", "name", "description",
                  "seed", "engine", "config", "workload", "sweep",
                  "phases")


@dataclass(frozen=True)
class Scenario:
    """A named, seeded, replayable chaos/workload campaign."""

    name: str
    description: str = ""
    seed: int = 0
    engine: str = "smart"
    config: TrainingConfig = field(default_factory=TrainingConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: One-axis config sweep: the whole phase list runs once per value.
    sweep: Dict[str, Tuple] = field(default_factory=dict)
    phases: Tuple[PhaseSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.name:
            raise ScenarioError("scenario needs a non-empty name")
        if not self.phases:
            raise ScenarioError(
                f"scenario {self.name!r} needs at least one phase")
        names = [phase.name for phase in self.phases]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ScenarioError(
                f"scenario {self.name!r} has duplicate phase name(s): "
                f"{sorted(duplicates)}")
        if len(self.sweep) > 1:
            raise ScenarioError(
                f"scenario {self.name!r}: sweep must cover exactly one "
                f"config axis, got {sorted(self.sweep)}")
        reject_unknown_keys(f"scenario {self.name!r} sweep", self.sweep,
                            [f.name for f in fields(TrainingConfig)],
                            ScenarioError)
        for axis, values in self.sweep.items():
            if not values:
                raise ScenarioError(
                    f"scenario {self.name!r}: sweep over {axis!r} "
                    f"needs at least one value")
            object.__setattr__(
                self, "sweep", {axis: tuple(values)})

    @property
    def needs_reference(self) -> bool:
        """Does any phase assert bit-identity against a no-fault run?"""
        return any(phase.expect.bit_identical_to_reference
                   for phase in self.phases)

    def campaign_configs(self) -> List[Tuple[str, TrainingConfig]]:
        """(label, config) per campaign: one entry, or one per sweep
        value."""
        if not self.sweep:
            return [("default", self.config)]
        ((axis, values),) = self.sweep.items()
        return [(f"{axis}={value}", replace(self.config,
                                            **{axis: value}))
                for value in values]

    def with_seed(self, seed: int) -> "Scenario":
        """The same campaign re-seeded (the ``--chaos-seed`` override)."""
        return replace(self, seed=int(seed))

    def with_base_fault_plan(self, plan: Optional[FaultPlan]
                             ) -> "Scenario":
        """Replace the scenario-level (pre-splice) fault plan."""
        return replace(self, config=replace(self.config,
                                            fault_plan=plan))

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCENARIO_SCHEMA,
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "engine": self.engine,
            "config": self.config.to_dict(),
            "workload": self.workload.to_dict(),
            "sweep": {axis: list(values)
                      for axis, values in self.sweep.items()},
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        reject_unknown_keys("scenario", data, _SCENARIO_KEYS, ScenarioError)
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"not a scenario file: schema is {schema!r}, expected "
                f"{SCENARIO_SCHEMA!r}")
        check_schema_version(f"scenario {data.get('name', '?')!r}", data)
        if "name" not in data:
            raise ScenarioError("scenario is missing required key 'name'")
        raw_phases = data.get("phases")
        if not isinstance(raw_phases, list):
            raise ScenarioError(
                f"scenario {data['name']!r} needs a 'phases' list")
        config = data.get("config", {})
        if isinstance(config, dict):
            config = TrainingConfig.from_dict(config)
        workload = data.get("workload", {})
        if isinstance(workload, dict):
            workload = WorkloadSpec.from_dict(workload)
        sweep = data.get("sweep", {}) or {}
        if not isinstance(sweep, dict):
            raise ScenarioError(
                f"scenario {data['name']!r}: sweep must be an object "
                f"mapping one config field to a list of values")
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            seed=int(data.get("seed", 0)),
            engine=str(data.get("engine", "smart")),
            config=config, workload=workload,
            sweep={axis: tuple(values)
                   for axis, values in sweep.items()},
            phases=tuple(PhaseSpec.from_dict(raw, index)
                         for index, raw in enumerate(raw_phases)))

    @classmethod
    def from_json_file(cls, path: str) -> "Scenario":
        with open(path) as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ScenarioError(
                    f"scenario file {path!r} is not valid JSON: "
                    f"{exc}") from exc
        return cls.from_dict(document)

    def to_json_file(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def load_scenario(path: str) -> Scenario:
    """Load a campaign from a JSON file (the CLI entry point)."""
    return Scenario.from_json_file(path)
