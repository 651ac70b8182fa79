"""The canonical public API surface: one factory, one config, one runner.

Historically each engine had its own constructor signature —
``BaselineOffloadEngine(..., num_ssds=...)``,
``SmartInfinityEngine(..., num_csds=...)``,
``HostOffloadEngine(..., host_memory_bytes=...)`` — and callers imported
three classes to switch between them.  :func:`create_engine` replaces all
of that with a mode string plus one :class:`~repro.runtime.engine.
TrainingConfig`: fleet geometry (``num_csds``, ``raid_members``,
``raid_chunk_bytes``, ``host_memory_bytes``) and the fault plan are
config fields, so the whole engine setup round-trips through a JSON
config file.

    from repro.api import create_engine

    engine = create_engine("smart", model, loss_fn, "/data/run0",
                           config=TrainingConfig(num_csds=4))

The old per-engine ctor kwargs completed their deprecation cycle and are
gone from the signatures: passing one raises :class:`TypeError`.

Beyond the factory, this module re-exports the rest of the supported
surface so one import site covers configuration (:class:`TrainingConfig`),
chaos (:class:`~repro.faults.FaultPlan`), health SLOs
(:class:`~repro.telemetry.health.Rule` /
:class:`~repro.telemetry.health.RulesEngine`), and replayable campaigns
(:class:`~repro.scenarios.Scenario` /
:class:`~repro.scenarios.ScenarioRunner`).  Anything in ``__all__`` here
(mirrored by ``repro/__init__``) follows the documented deprecation
policy (docs/API.md); everything else is internal and may change without
notice.
"""

from __future__ import annotations

from typing import Optional

from .errors import TrainingError
from .faults import FaultPlan
from .nn.modules import Module
from .runtime.engine import (BaselineOffloadEngine, LossFn,
                             MixedPrecisionTrainer, TrainingConfig)
from .runtime.host_offload import HostOffloadEngine
from .runtime.smart import SmartInfinityEngine
from .scenarios import Scenario, ScenarioRunner, load_scenario
from .telemetry.health import Rule, RulesEngine

#: Engine modes accepted by :func:`create_engine`.
ENGINE_MODES = ("baseline", "host_offload", "smart")

__all__ = [
    "ENGINE_MODES",
    "FaultPlan",
    "Rule",
    "RulesEngine",
    "Scenario",
    "ScenarioRunner",
    "TrainingConfig",
    "create_engine",
    "load_scenario",
]


def create_engine(mode: str, model: Module, loss_fn: LossFn,
                  storage_dir: Optional[str] = None,
                  config: Optional[TrainingConfig] = None,
                  ) -> MixedPrecisionTrainer:
    """Build a training engine from a mode string and one config.

    * ``"baseline"`` — ZeRO-Infinity-style: RAID0 over
      ``config.raid_members`` SSDs, CPU update (needs ``storage_dir``);
    * ``"host_offload"`` — ZeRO-Offload-style: states in host DRAM
      (``storage_dir`` unused);
    * ``"smart"`` — Smart-Infinity: ``config.num_csds`` SmartSSDs with
      near-storage FPGA update (needs ``storage_dir``).

    All three share the mixed-precision trainer interface
    (``train_step``, ``close``, checkpointing) and train bit-identically,
    so callers can switch modes without touching anything else.

    The smart engine additionally honours ``config.parallel_backend``
    (``"thread"``, ``"process"`` or ``"auto"``; validated on every
    engine): the process backend runs one worker process per CSD
    with optimizer shards in shared memory, scaling past the GIL while
    keeping the training output bit-identical to the thread pool.

    Two further knobs shape the step without changing a trained bit:
    ``config.schedule`` (``"phased"`` | ``"interleaved"`` — the latter
    drops the barrier between a shard's or block's gradient offload and
    its update; both start after backprop has finished) and
    ``config.activation_offload`` (``"recompute"`` | ``"spill"`` —
    spill boundary activations to storage with async prefetch instead
    of recomputing; needs an engine that owns a ``storage_dir``).
    """
    if mode not in ENGINE_MODES:
        raise TrainingError(
            f"unknown engine mode {mode!r}; choose from {ENGINE_MODES}")
    config = config or TrainingConfig()
    if mode == "host_offload":
        return HostOffloadEngine(model, loss_fn, config=config)
    if storage_dir is None:
        raise TrainingError(f"engine mode {mode!r} needs a storage_dir")
    if mode == "baseline":
        return BaselineOffloadEngine(model, loss_fn, storage_dir,
                                     config=config)
    return SmartInfinityEngine(model, loss_fn, storage_dir, config=config)
