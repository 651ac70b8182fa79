"""repro — a reproduction of Smart-Infinity (HPCA 2024).

Smart-Infinity accelerates storage-offloaded LLM training by moving the
optimizer update into FPGA accelerators inside computational storage
devices (SmartSSDs) and compressing gradients on the way down.  This
package provides:

* :mod:`repro.nn` — a numpy autograd mini-framework with transformer
  models (the PyTorch stand-in);
* :mod:`repro.optim` / :mod:`repro.compression` — flat-array optimizers and
  Top-K gradient compression;
* :mod:`repro.storage` / :mod:`repro.csd` — a functional storage substrate
  (real file-backed devices, RAID0) and a functional SmartSSD emulator
  (HLS-style kernels, resource estimation, the internal transfer handler);
* :mod:`repro.runtime` — the storage-offloaded training engines: a
  ZeRO-Infinity-style CPU baseline and the Smart-Infinity engine
  (SmartUpdate + SmartComp), with exact interconnect-traffic metering;
* :mod:`repro.sim` / :mod:`repro.hw` / :mod:`repro.perf` — a discrete-event
  performance model of the PCIe/SSD/FPGA system, calibrated to the paper;
* :mod:`repro.experiments` — the paper's tables and figures (sweeps as data).
"""

from .api import ENGINE_MODES, create_engine
from .errors import (ArenaError, CapacityError, DeviceFailedError,
                     FaultError, FaultInjectionError, HardwareConfigError,
                     KernelError, PartitionError, ReproError,
                     RetryExhaustedError, ScenarioError, SimulationError,
                     StorageError, TrainingError)
from .memory import (ArenaStats, BufferArena, aggregate_arena_stats,
                     thread_arena)
from .faults import FaultInjector, FaultPlan, FaultRule, RetryPolicy
from .runtime import (BaselineOffloadEngine, HostOffloadEngine,
                      SmartInfinityEngine, StepResult, TrainingConfig,
                      expected_traffic, load_checkpoint, save_checkpoint)
from .scenarios import Scenario, ScenarioRunner, load_scenario
from .telemetry.health import Rule, RulesEngine
from .version import __version__

__all__ = [
    "ArenaError",
    "ArenaStats",
    "BaselineOffloadEngine",
    "BufferArena",
    "CapacityError",
    "DeviceFailedError",
    "ENGINE_MODES",
    "FaultError",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "HostOffloadEngine",
    "HardwareConfigError",
    "KernelError",
    "PartitionError",
    "ReproError",
    "RetryExhaustedError",
    "RetryPolicy",
    "Rule",
    "RulesEngine",
    "Scenario",
    "ScenarioError",
    "ScenarioRunner",
    "SimulationError",
    "SmartInfinityEngine",
    "StepResult",
    "StorageError",
    "TrainingConfig",
    "TrainingError",
    "__version__",
    "aggregate_arena_stats",
    "create_engine",
    "expected_traffic",
    "load_checkpoint",
    "load_scenario",
    "save_checkpoint",
    "thread_arena",
]
